#ifndef PPC_BENCH_E2E_E2E_H_
#define PPC_BENCH_E2E_E2E_H_

// Shared declarations of the end-to-end benchmark driver (`ppclust_e2e`).
// The driver runs whole clustering jobs through the library's public API,
// the way `ppclust_cli cluster` and `serve` run them, and measures them
// from outside: it links the library unchanged and records its spans
// around the calls it makes into each layer.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/config.h"
#include "core/outcome.h"
#include "core/schedule.h"
#include "data/generators.h"
#include "data/schema.h"
#include "distance/dissimilarity_matrix.h"
#include "net/message.h"

namespace ppc::e2e {

/// Steady-clock nanoseconds (one epoch for the whole process).
int64_t NowNs();

/// One named job mix. See README.md for why each exists.
struct Workload {
  std::string name;
  /// Three TCP endpoints on loopback with one SessionRegistry each (the
  /// `serve` fleet), instead of one in-memory transport.
  bool daemon = false;
  /// Mixed numeric/categorical/DNA data instead of 2-D Gaussian blobs.
  bool mixed_data = false;
  size_t objects = 0;
  size_t holders = 0;
  /// Executor, tiling and masking of every measured job.
  ProtocolConfig config;
  /// Closed-loop clients; 0 selects the open loop at `rate_per_s`.
  size_t clients = 1;
  double rate_per_s = 0;
  /// Sender-side delay on every directed channel (a WAN hop).
  int link_delay_ms = 0;
  /// The measured phase runs max(200, seconds * this) jobs, so a run has
  /// the same job count on every commit and lasts about `seconds` here.
  double nominal_jobs_per_s = 0;
  size_t warmup_jobs = 0;
};

const std::vector<Workload>& Workloads();
const Workload* FindWorkload(const std::string& name);

/// Everything the seed generates. The library sees only these values.
struct Inputs {
  std::vector<LabeledDataset> parts;  // one per holder, roster order
  std::vector<int> truth;             // generator labels, global order
  Schema schema;
  SessionPlan plan;
  uint64_t tp_entropy = 0;
  std::vector<uint64_t> holder_entropy;
  ClusterRequest request;
  size_t jobs = 0;
  /// Open loop only: arrival offsets in seconds, sorted ascending.
  std::vector<double> arrivals_s;
};

Result<Inputs> MakeInputs(const Workload& workload, uint64_t seed,
                          double seconds);

/// The sequential in-memory run every job must reproduce byte for byte.
struct Reference {
  std::string outcome_bytes;
  double adjusted_rand = 0;
  /// The third party's equal-weight merge, for the off-path clustering
  /// timing.
  DissimilarityMatrix merged;
};

Result<Reference> BuildReference(const Workload& workload,
                                 const Inputs& inputs);

/// The schedule graph a measured job of `workload` executes.
Result<Schedule> BuildJobSchedule(const Workload& workload,
                                  const Inputs& inputs);

// -- Tracing ----------------------------------------------------------------

inline constexpr int kNoStep = -1;

/// One timed call from the driver into the library.
struct Span {
  int32_t job = 0;
  int32_t step = kNoStep;  // schedule step index, or kNoStep
  const char* name = "";   // StepKindToString, or a driver label
  int32_t party = -1;      // 0 = third party, 1.. = holders in roster order
  uint32_t tid = 0;
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
};

/// One frame seen by a tap on its sending side.
struct Frame {
  int32_t job = 0;
  std::string topic;
  uint64_t wire_bytes = 0;
};

/// Collects spans and tapped frames from every job thread.
class Tracer {
 public:
  /// Small per-thread id for the trace viewer.
  static uint32_t ThreadId();

  void AddSpan(const Span& span) EXCLUDES(mutex_);
  /// Tap callback body: keeps frames of traced jobs only.
  void AddFrame(const WireFrame& frame) EXCLUDES(mutex_);

  std::vector<Span> spans() const EXCLUDES(mutex_);
  std::vector<Frame> frames() const EXCLUDES(mutex_);

 private:
  mutable Mutex mutex_;
  std::vector<Span> spans_ GUARDED_BY(mutex_);
  std::vector<Frame> frames_ GUARDED_BY(mutex_);
};

/// Runs `fn` (returning Status) and records it as one span.
template <typename Fn>
Status Timed(Tracer* tracer, int job, int step, const char* name, int party,
             Fn&& fn) {
  Span span;
  span.job = job;
  span.step = step;
  span.name = name;
  span.party = party;
  span.tid = Tracer::ThreadId();
  span.begin_ns = NowNs();
  Status status = fn();
  span.end_ns = NowNs();
  tracer->AddSpan(span);
  return status;
}

/// Session ids of measured jobs are kJobPrefix + index; the tracer maps
/// frames back to jobs through them. Warm-up jobs use kWarmupPrefix and
/// are never traced.
inline constexpr char kJobPrefix[] = "job-";
inline constexpr char kWarmupPrefix[] = "warm-";
/// Traced run: even jobs run traced, odd jobs untraced (the overhead
/// baseline, measured under the same load).
inline bool IsTracedJob(size_t index) { return index % 2 == 0; }

// -- Fleets -------------------------------------------------------------------

inline constexpr size_t kMaxParties = 8;

/// What one job left behind. Daemon session bodies write their own
/// party_end_ns slot; the waiter reads them after joining the sessions.
struct JobResult {
  int64_t scheduled_ns = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Building the job's parties (in-memory) or starting its sessions.
  int64_t start_cost_ns = 0;
  int64_t party_end_ns[kMaxParties] = {};
  Status status;
  bool traced = false;
};

/// The resident part of a deployment: transports, registries, taps.
class Fleet {
 public:
  virtual ~Fleet() = default;

  /// Starts one job. In-memory fleets run it to completion on the calling
  /// thread; daemon fleets start one session per endpoint and return.
  virtual void Start(const std::string& session, int job, bool traced,
                     JobResult* result) = 0;
  /// Completes `result` once the job finished (joins daemon sessions).
  virtual void Wait(const std::string& session, JobResult* result) = 0;

  /// Jobs started and not yet finished.
  virtual size_t InFlight() const = 0;
  /// Traffic counters of every job so far, summed over the endpoints.
  virtual ChannelStats WireTotal() const = 0;
  /// One finished job's counters (in-memory fleets keep traced jobs').
  virtual ChannelStats SessionTotal(const std::string& session) const = 0;
  /// How long the transport/registry construction took.
  virtual int64_t construction_ns() const = 0;
};

/// Builds the fleet `workload` runs on. `tracer` (null when untraced) gets
/// a tap on every directed channel; traced jobs record their spans there.
Result<std::unique_ptr<Fleet>> MakeFleet(const Workload& workload,
                                         const Inputs& inputs,
                                         const Reference& reference,
                                         Tracer* tracer);

// -- Metrics ------------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

/// Linear-interpolated percentile (q in [0, 1]) of unsorted `values`.
double Percentile(std::vector<double> values, double q);

/// What the traced run measured besides spans and frames.
struct TraceContext {
  const Schedule* schedule = nullptr;
  /// Measured jobs, indexed like their session ids.
  const std::vector<JobResult>* results = nullptr;
  /// Per-job traffic counters (summed over endpoints) of the traced jobs.
  std::map<int32_t, ChannelStats> session_totals;
  /// Executor workers one party may occupy at once.
  size_t party_workers = 1;
};

/// Per-layer metrics of the traced jobs (everything derived from spans,
/// taps and the off-path Seal/Open replay), and the span accounting.
Metrics LayerMetrics(const TraceContext& context, const Tracer& tracer,
                     std::vector<Check>* checks);

/// Writes the spans of the first `max_jobs` traced jobs as Chrome
/// trace-event JSON.
Status WriteChromeTrace(const std::string& path, const Tracer& tracer,
                        const SessionPlan& plan, size_t max_jobs);

}  // namespace ppc::e2e

#endif  // PPC_BENCH_E2E_E2E_H_
