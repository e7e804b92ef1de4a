#include "core/slugger.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/candidate_generation.hpp"
#include "core/memo_table.hpp"
#include "core/merge_planner.hpp"
#include "core/slugger_state.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace slugger::core {

double MergingThreshold(uint32_t t, uint32_t total_iterations) {
  if (t >= total_iterations) return 0.0;
  return 1.0 / (1.0 + static_cast<double>(t));
}

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// RNG seed of one candidate group: an independent deterministic stream per
/// (run seed, iteration, group index), so the outcome never depends on
/// which worker processes the group.
uint64_t GroupSeed(uint64_t seed, uint32_t t, uint64_t group) {
  return Mix64(seed ^ (t * 0x7C0FFEE5ull) ^ Mix64(group * 0x51D5EED7ull));
}

/// Per-worker evaluation context, one per engine thread. Each worker
/// brings its own memo table (MemoTable is not thread-safe, and other
/// engines — e.g. one per shard — may run concurrently in the process;
/// private tables re-warm within a few evaluations and stay hot for the
/// whole run) plus planner scratch and reusable plan buffers.
struct WorkerContext {
  explicit WorkerContext(SluggerState* state) : planner(state, &memo) {}
  WorkerContext(const WorkerContext&) = delete;
  WorkerContext& operator=(const WorkerContext&) = delete;

  MemoTable memo;  // must outlive planner; declared first (init order)
  MergePlanner planner;
  MergePlan plan;
  MergePlan best;
};

/// Partners one scan evaluated, and how many of them the saving bound cut
/// before any solve.
struct ScanCounts {
  uint64_t evaluations = 0;
  uint64_t bounded = 0;
};

/// Algorithm 2 inner loop: scans q for the best merge partner of a.
/// Read-only on the state (safe under concurrent evaluation). Returns the
/// index of the winning partner in q (meaningful only if best->valid).
///
/// The saving-bound cut keeps the pick exact: a partner whose bound is
/// below theta can never be committed, and one whose bound is not above
/// the best saving so far cannot replace it (only a strictly larger saving
/// does). So the first partner to reach the maximum saving, the one this
/// loop commits when that maximum is >= theta, is never cut. The
/// count-only PartnerBound is never below the exact bound, so a partner it
/// cuts is one EvaluatePartner would cut too, and it is booked the same
/// way: evaluated and bounded.
size_t ScanPartners(const SluggerState& state, MergePlanner& planner,
                    const std::vector<SupernodeId>& q, SupernodeId a,
                    double theta, uint32_t height_bound, MergePlan* plan,
                    MergePlan* best, ScanCounts* counts) {
  planner.BeginScan(a);
  best->Reset(a, a);
  best->saving = kNegInf;
  size_t best_idx = q.size();
  for (size_t i = 0; i < q.size(); ++i) {
    SupernodeId z = q[i];
    if (height_bound != 0 &&
        std::max(state.Height(a), state.Height(z)) + 1 > height_bound) {
      continue;  // Table V height-bounded variant
    }
    ++counts->evaluations;
    const double bound = planner.PartnerBound(z);
    if (bound < theta || bound <= best->saving) {
      ++counts->bounded;
      continue;
    }
    planner.EvaluatePartner(z, theta, best->saving, plan);
    if (!plan->valid) {
      ++counts->bounded;
    } else if (plan->saving > best->saving) {
      std::swap(*best, *plan);
      best_idx = i;
    }
  }
  return best_idx;
}

/// Pops a uniformly random element of q (the Algorithm 2 pick of A).
SupernodeId PopRandom(std::vector<SupernodeId>& q, Rng& rng) {
  size_t a_idx = rng.Below(q.size());
  SupernodeId a = q[a_idx];
  q[a_idx] = q.back();
  q.pop_back();
  return a;
}

/// The sequential merge phase (num_threads == 1): the pre-parallelism
/// control flow — one planner, one RNG stream shared across iterations.
/// (Outputs can still differ from pre-shingle-cache binaries on graphs
/// whose candidate groups overflow max_group_size, because re-division
/// levels >= 1 derive their hashes from the per-iteration cache.)
void RunGroupsSequential(const SluggerState& state, WorkerContext& ctx,
                         Rng& rng,
                         std::vector<std::vector<SupernodeId>>& groups,
                         double theta, uint32_t height_bound,
                         const CancelToken* cancel, SluggerResult* result) {
  MergePlan& best = ctx.best;
  for (std::vector<SupernodeId>& q : groups) {
    while (q.size() > 1) {
      if (IsCancelled(cancel)) return;  // every commit leaves a lossless state
      SupernodeId a = PopRandom(q, rng);
      ScanCounts counts;
      size_t best_idx = ScanPartners(state, ctx.planner, q, a, theta,
                                     height_bound, &ctx.plan, &best, &counts);
      result->evaluations += counts.evaluations;
      result->bounded += counts.bounded;
      if (best.valid && best.saving >= theta) {
        SupernodeId m = ctx.planner.Commit(best);
        ++result->merges;
        q[best_idx] = m;
      }
    }
  }
}

/// True iff no pair of this round can reach theta, so its scans can be
/// skipped. That holds at θ ≥ 1/2 while nothing has merged (h_count() == 0:
/// every root is a leaf and P+ = E). Take leaves a and z with c common
/// neighbours. Of the groups a rewrite may change, the edge a–z (if any)
/// and each single cross edge can remove nothing, and each common
/// neighbour's bucket of two p-edges can remove one; the merge adds two
/// h-edges. So the saving bound is (c − 2) / cost_before. Each common
/// neighbour brings one edge of a and one of z, so cost_before ≥ 2c and the
/// bound is at most (c − 2) / 2c = 1/2 − 1/c < 1/2 (K₂,₅₀₀'s twins reach
/// 498/1000). The bound therefore cuts every such pair; only a pair of
/// edgeless leaves (cost_before = 0) is valid, and it saves −∞.
bool RoundCannotMerge(const SluggerState& state, double theta) {
  return theta >= 0.5 && state.summary().h_count() == 0;
}

/// Books a skipped round exactly as its scans would: every pair of a group
/// is evaluated once, and the bound cuts all but the pairs of edgeless
/// leaves. The sequential engine's shared stream still makes its
/// Below(k) … Below(2) draws per group; the round-based engine seeds each
/// group's stream afresh per round, so it draws nothing.
void SkipRound(const SluggerState& state,
               const std::vector<std::vector<SupernodeId>>& groups,
               Rng* seq_rng, SluggerResult* result) {
  for (const std::vector<SupernodeId>& q : groups) {
    const uint64_t k = q.size();
    uint64_t edgeless = 0;
    for (SupernodeId r : q) edgeless += state.IncCost(r) == 0;
    result->evaluations += k * (k - 1) / 2;
    result->bounded += k * (k - 1) / 2 - edgeless * (edgeless - 1) / 2;
    if (seq_rng != nullptr) {
      for (uint64_t size = k; size > 1; --size) seq_rng->Below(size);
    }
  }
}

/// Round-based engine (num_threads >= 2): every active group picks its
/// merge candidate against the same frozen state in parallel (read-only),
/// then the chosen merges commit serially in group order, re-evaluated
/// against the live state (an earlier commit in the round may have
/// re-encoded edges incident to this family, so the stored plan could be
/// stale). Output is byte-identical for every thread count.
void RunGroupsRoundBased(
    const SluggerState& state,
    std::vector<std::unique_ptr<WorkerContext>>& workers, ThreadPool& pool,
    uint64_t seed, uint32_t t, std::vector<std::vector<SupernodeId>>& groups,
    double theta, uint32_t height_bound, const CancelToken* cancel,
    SluggerResult* result) {
  struct GroupTask {
    std::vector<SupernodeId> q;
    Rng rng;
    MergePlan plan;  ///< winning plan of this round's evaluate phase
    size_t best_idx = 0;
    bool want_commit = false;
  };
  std::vector<GroupTask> tasks(groups.size());
  std::vector<uint32_t> active;
  active.reserve(tasks.size());
  for (size_t i = 0; i < groups.size(); ++i) {
    tasks[i].q = std::move(groups[i]);
    tasks[i].rng.Reseed(GroupSeed(seed, t, i));
    if (tasks[i].q.size() > 1) active.push_back(static_cast<uint32_t>(i));
  }

  std::atomic<uint64_t> evaluations{0};
  std::atomic<uint64_t> bounded{0};
  MergePlan commit_plan;
  while (!active.empty()) {
    // Round boundary: all of this round's commits have applied, so the
    // state is a consistent lossless summary — safe to stop here.
    if (IsCancelled(cancel)) break;
    pool.Run(active.size(), [&](uint64_t task, unsigned worker) {
      GroupTask& gt = tasks[active[task]];
      WorkerContext& ctx = *workers[worker];
      SupernodeId a = PopRandom(gt.q, gt.rng);
      ScanCounts counts;
      size_t best_idx = ScanPartners(state, ctx.planner, gt.q, a, theta,
                                     height_bound, &ctx.plan, &ctx.best,
                                     &counts);
      evaluations.fetch_add(counts.evaluations, std::memory_order_relaxed);
      bounded.fetch_add(counts.bounded, std::memory_order_relaxed);
      gt.want_commit = ctx.best.valid && ctx.best.saving >= theta;
      if (gt.want_commit) {
        std::swap(gt.plan, ctx.best);
        gt.best_idx = best_idx;
      }
    });

    // The first commit of a round still sees exactly the frozen state its
    // plan was evaluated against, so it applies directly; later commits
    // re-evaluate because an earlier one may have re-encoded edges
    // incident to this family. (The choice depends only on the commit
    // count, so thread-count invariance is preserved.)
    MergePlanner& committer = workers[0]->planner;
    uint64_t committed_this_round = 0;
    for (uint32_t idx : active) {
      GroupTask& gt = tasks[idx];
      if (!gt.want_commit) continue;
      const MergePlan* to_commit = &gt.plan;
      if (committed_this_round != 0) {
        committer.EvaluateInto(gt.plan.a, gt.plan.b, &commit_plan);
        ++result->evaluations;
        if (!(commit_plan.valid && commit_plan.saving >= theta)) continue;
        to_commit = &commit_plan;
      }
      SupernodeId m = committer.Commit(*to_commit);
      ++committed_this_round;
      ++result->merges;
      gt.q[gt.best_idx] = m;
    }

    active.erase(std::remove_if(active.begin(), active.end(),
                                [&](uint32_t idx) {
                                  return tasks[idx].q.size() <= 1;
                                }),
                 active.end());
  }
  result->evaluations += evaluations.load(std::memory_order_relaxed);
  result->bounded += bounded.load(std::memory_order_relaxed);
}

}  // namespace

SluggerResult Summarize(const graph::Graph& g, const SluggerConfig& config) {
  return Summarize(g, config, SummarizeHooks{});
}

SluggerResult Summarize(const graph::Graph& g, const SluggerConfig& config,
                        const SummarizeHooks& hooks) {
  SluggerResult result;
  WallTimer total_timer;

  // An external pool's size wins: the caller (e.g. slugger::Engine) sized
  // it once for its whole lifetime.
  const unsigned threads = hooks.pool != nullptr
                               ? hooks.pool->size()
                               : config.num_threads == 0
                                     ? ThreadPool::DefaultThreads()
                                     : config.num_threads;
  result.threads_used = threads;

  SluggerState state(g);
  CandidateGenerator generator(g, config.seed, config.max_group_size,
                               config.shingle_levels);

  // The thread count alone picks the engine: one thread runs the
  // sequential engine, more run the round-based engine on a pool that
  // candidate generation and pruning share. A hook-supplied pool is
  // borrowed instead of building one (amortizing thread startup across
  // runs); outputs do not depend on which. Each engine thread gets its own
  // context (planner scratch is sized eagerly to the id bound).
  std::optional<ThreadPool> owned_pool;
  ThreadPool* pool = nullptr;
  if (threads > 1) {
    pool = hooks.pool != nullptr ? hooks.pool : &owned_pool.emplace(threads);
  }
  std::vector<std::unique_ptr<WorkerContext>> workers;
  workers.reserve(threads);
  for (unsigned w = 0; w < threads; ++w) {
    workers.push_back(std::make_unique<WorkerContext>(&state));
  }
  Rng seq_rng(Mix64(config.seed ^ 0xC0FFEEull));

  const uint32_t hb = config.max_height;  // 0 = unbounded

  for (uint32_t t = 1; t <= config.iterations; ++t) {
    if (IsCancelled(hooks.cancel)) {
      result.cancelled = true;
      break;
    }
    const double theta = MergingThreshold(t, config.iterations);
    WallTimer candidate_timer;
    std::vector<std::vector<SupernodeId>> groups =
        generator.Generate(state, t, pool);
    result.candidate_seconds += candidate_timer.Seconds();

    if (RoundCannotMerge(state, theta)) {
      SkipRound(state, groups, pool == nullptr ? &seq_rng : nullptr,
                &result);
    } else if (pool == nullptr) {
      RunGroupsSequential(state, *workers[0], seq_rng, groups, theta, hb,
                          hooks.cancel, &result);
    } else {
      RunGroupsRoundBased(state, workers, *pool, config.seed, t, groups,
                          theta, hb, hooks.cancel, &result);
    }
    if (config.check_aggregates) {
      result.aggregates_valid =
          result.aggregates_valid && state.ValidateAggregates();
    }
    if (IsCancelled(hooks.cancel)) {
      // The engine bailed mid-iteration; the state is lossless but the
      // iteration is partial, so no progress event fires for it.
      result.cancelled = true;
      break;
    }
    result.iterations_completed = t;
    if (hooks.progress) {
      const summary::SummaryGraph& s = state.summary();
      ProgressEvent event;
      event.iteration = t;
      event.total_iterations = config.iterations;
      event.merges = result.merges;
      event.p_count = s.p_count();
      event.n_count = s.n_count();
      event.h_count = s.h_count();
      event.elapsed_seconds = total_timer.Seconds();
      hooks.progress(event);
    }
  }
  result.merge_seconds = total_timer.Seconds();

  // Pruning (paper §III-B4), on the pool when one exists and inline
  // otherwise (same output; see PruneOptions::pool).
  WallTimer prune_timer;
  PruneOptions popt;
  popt.rounds = config.pruning_rounds;
  popt.pool = pool;
  popt.cancel = hooks.cancel;
  if (config.pruning_rounds > 0) {
    result.prune_ablation = PruneSummary(&state.summary(), g, popt);
    result.cancelled = result.cancelled || IsCancelled(hooks.cancel);
  } else {
    result.prune_ablation.stage[0] = summary::ComputeStats(state.summary());
    for (int i = 1; i < 4; ++i) {
      result.prune_ablation.stage[i] = result.prune_ablation.stage[0];
    }
  }
  result.prune_seconds = prune_timer.Seconds();

  result.summary = std::move(state.summary());
  result.stats = summary::ComputeStats(result.summary);
  return result;
}

}  // namespace slugger::core
