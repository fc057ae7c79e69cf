// Workload definitions, seeded inputs, the reference outcome, and the two
// fleets jobs run on: one in-memory transport, or the `serve` deployment
// of three TCP endpoints with one SessionRegistry each.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <thread>
#include <utility>

#include "cluster/quality.h"
#include "common/cancellation.h"
#include "common/serde.h"
#include "common/thread_pool.h"
#include "core/data_holder.h"
#include "core/party_runner.h"
#include "core/session.h"
#include "core/session_registry.h"
#include "core/third_party.h"
#include "data/partition.h"
#include "e2e.h"
#include "net/in_memory_network.h"
#include "net/session_network.h"
#include "net/tcp_network.h"
#include "rng/prng.h"

namespace ppc::e2e {

namespace {

/// A wedged job fails with kDeadlineExceeded after this long instead of
/// hanging the run; every workload's jobs finish in well under a second.
constexpr uint64_t kJobDeadlineMs = 30000;
constexpr auto kReceiveTimeout = std::chrono::seconds(30);
constexpr size_t kMinJobs = 200;

ProtocolConfig JobConfig(size_t num_threads, size_t tile_size,
                         MaskingMode masking) {
  ProtocolConfig config;
  config.num_threads = num_threads;
  config.tile_size = tile_size;
  config.masking_mode = masking;
  config.deadline_ms = kJobDeadlineMs;
  return config;
}

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> all;

  Workload bulk;
  bulk.name = "bulk-numeric";
  bulk.objects = 1024;
  bulk.holders = 3;
  bulk.config = JobConfig(1, 0, MaskingMode::kBatch);
  bulk.clients = 1;
  bulk.nominal_jobs_per_s = 11.0;
  bulk.warmup_jobs = 10;
  all.push_back(bulk);

  Workload mixed;
  mixed.name = "mixed-tiled";
  mixed.mixed_data = true;
  mixed.objects = 256;
  mixed.holders = 4;
  mixed.config = JobConfig(4, 32, MaskingMode::kPerPair);
  mixed.clients = 1;
  mixed.nominal_jobs_per_s = 30.0;
  mixed.warmup_jobs = 25;
  all.push_back(mixed);

  Workload lan;
  lan.name = "daemon-lan";
  lan.daemon = true;
  lan.objects = 32;
  lan.holders = 2;
  lan.config = JobConfig(1, 0, MaskingMode::kBatch);
  lan.clients = 4;
  lan.nominal_jobs_per_s = 580.0;
  lan.warmup_jobs = 400;
  all.push_back(lan);

  // R is frozen; it must not follow later commits, or the open loop would
  // stop measuring the same offered load. Half of daemon-lan's jobs_per_s
  // (about 290/s) is beyond what this fleet sustains with the delay: from
  // about 200/s on, sessions pile up faster than they finish and jobs end
  // at their deadline. 120/s keeps about 54 sessions in flight.
  Workload wan = lan;
  wan.name = "daemon-wan";
  wan.clients = 0;
  wan.rate_per_s = 120.0;
  wan.link_delay_ms = 40;
  wan.nominal_jobs_per_s = wan.rate_per_s;
  wan.warmup_jobs = 64;
  all.push_back(wan);
  return all;
}

/// SplitMix64 finalizer: independent sub-seeds from one --seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string SerializeOutcome(const ClusteringOutcome& outcome) {
  ByteWriter writer;
  outcome.Serialize(&writer);
  return writer.TakeBytes();
}

Status MatchReference(const ClusteringOutcome& outcome,
                      const Reference& reference) {
  if (SerializeOutcome(outcome) != reference.outcome_bytes) {
    return Status::DataLoss("outcome bytes differ from the reference");
  }
  return Status::OK();
}

/// 0 = third party, 1.. = holders in roster order.
int PartyIndex(const SessionPlan& plan, const std::string& name) {
  if (name == plan.third_party) return 0;
  for (size_t i = 0; i < plan.holder_order.size(); ++i) {
    if (plan.holder_order[i] == name) return static_cast<int>(i) + 1;
  }
  return -1;
}

std::vector<std::string> PartyNames(const SessionPlan& plan) {
  std::vector<std::string> names = {plan.third_party};
  names.insert(names.end(), plan.holder_order.begin(),
               plan.holder_order.end());
  return names;
}

void Accumulate(ChannelStats* total, const ChannelStats& add) {
  total->messages += add.messages;
  total->payload_bytes += add.payload_bytes;
  total->wire_bytes += add.wire_bytes;
}

/// One session's counters on the channels `from` sends on, by lookup:
/// GrandTotalOn scans every session's channels, which grows with the run.
void AddSessionStats(const Network& network, const std::string& session,
                     const std::string& from,
                     const std::vector<std::string>& names,
                     ChannelStats* total) {
  for (const std::string& to : names) {
    if (to != from) Accumulate(total, network.StatsOn(session, from, to));
  }
}

/// Executes step `i` through the library's single step binding
/// (`ExecuteScheduleStep`) and records it as one span.
Status TracedStep(const Schedule& schedule, size_t i, DataHolder* holder,
                  ThirdParty* third_party, Tracer* tracer, int job) {
  const ScheduleStep& step = schedule.steps()[i];
  return Timed(tracer, job, static_cast<int>(i), StepKindToString(step.kind),
               PartyIndex(schedule.plan(), step.actor), [&] {
                 return ExecuteScheduleStep(schedule, step, holder,
                                            third_party);
               });
}

void AddSetupSpan(Tracer* tracer, int job, int party, int64_t begin_ns) {
  Span span;
  span.job = job;
  span.name = "job.setup";
  span.party = party;
  span.tid = Tracer::ThreadId();
  span.begin_ns = begin_ns;
  span.end_ns = NowNs();
  tracer->AddSpan(span);
}

/// The parties of one job, built the way `serve` builds them per session.
struct Parties {
  std::unique_ptr<ThirdParty> third_party;
  std::vector<std::unique_ptr<DataHolder>> holders;

  static Result<Parties> Build(const Workload& workload, const Inputs& inputs,
                               Network* network) {
    Parties parties;
    parties.third_party = std::make_unique<ThirdParty>(
        inputs.plan.third_party, network, workload.config, inputs.schema,
        inputs.tp_entropy);
    for (size_t h = 0; h < inputs.parts.size(); ++h) {
      auto holder = std::make_unique<DataHolder>(
          inputs.plan.holder_order[h], network, workload.config,
          inputs.holder_entropy[h]);
      PPC_RETURN_IF_ERROR(holder->SetData(inputs.parts[h].data));
      parties.holders.push_back(std::move(holder));
    }
    return parties;
  }
};

// -- In-memory fleet ----------------------------------------------------------

/// One in-memory transport; each job is its own session on it, purged
/// once the job finished.
class InMemoryFleet final : public Fleet {
 public:
  InMemoryFleet(const Workload& workload, const Inputs& inputs,
                const Reference& reference, Tracer* tracer)
      : workload_(workload),
        inputs_(inputs),
        reference_(reference),
        tracer_(tracer) {}

  Status Init() {
    const int64_t begin = NowNs();
    const std::vector<std::string> names = PartyNames(inputs_.plan);
    for (const std::string& name : names) {
      PPC_RETURN_IF_ERROR(network_.RegisterParty(name));
    }
    if (tracer_ != nullptr) {
      for (const std::string& from : names) {
        for (const std::string& to : names) {
          if (from == to) continue;
          network_.AddTap(from, to, [tracer = tracer_](const WireFrame& f) {
            tracer->AddFrame(f);
          });
        }
      }
    }
    construction_ns_ = NowNs() - begin;
    return Status::OK();
  }

  void Start(const std::string& session, int job, bool traced,
             JobResult* result) override {
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    result->traced = traced;
    result->status = RunJob(session, job, traced, result);
    if (result->end_ns == 0) result->end_ns = NowNs();  // failed early
    // A job here stands for one `ppclust_cli cluster` run, whose transport
    // goes away with it: keep the session's counters, drop its state. (Kept
    // state would grow the heap in seed-dependent steps of several MB.)
    const std::vector<std::string> names = PartyNames(inputs_.plan);
    ChannelStats stats;
    for (const std::string& from : names) {
      AddSessionStats(network_, session, from, names, &stats);
    }
    network_.PurgeSession(session);
    {
      MutexLock lock(stats_mutex_);
      Accumulate(&wire_total_, stats);
      if (traced) session_totals_[session] = stats;
    }
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
  }

  void Wait(const std::string&, JobResult*) override {}

  size_t InFlight() const override {
    return in_flight_.load(std::memory_order_relaxed);
  }
  ChannelStats WireTotal() const override {
    MutexLock lock(stats_mutex_);
    return wire_total_;
  }
  ChannelStats SessionTotal(const std::string& session) const override {
    MutexLock lock(stats_mutex_);
    auto it = session_totals_.find(session);
    return it == session_totals_.end() ? ChannelStats() : it->second;
  }
  int64_t construction_ns() const override { return construction_ns_; }

 private:
  Status RunJob(const std::string& session, int job, bool traced,
                JobResult* result) {
    SessionNetwork view(&network_, session);
    const int64_t begin = NowNs();
    PPC_ASSIGN_OR_RETURN(Parties parties,
                         Parties::Build(workload_, inputs_, &view));
    result->start_cost_ns = NowNs() - begin;
    ClusteringOutcome outcome;
    PPC_RETURN_IF_ERROR(traced
                            ? RunTraced(&view, job, begin, &parties, &outcome)
                            : RunPlain(&view, &parties, &outcome));
    result->end_ns = NowNs();
    return MatchReference(outcome, reference_);
  }

  /// What `ppclust_cli cluster` does: a ClusteringSession over the parties.
  Status RunPlain(Network* network, Parties* parties,
                  ClusteringOutcome* outcome) {
    ClusteringSession session(network, workload_.config, inputs_.schema);
    PPC_RETURN_IF_ERROR(session.SetThirdParty(parties->third_party.get()));
    for (auto& holder : parties->holders) {
      PPC_RETURN_IF_ERROR(session.AddDataHolder(holder.get()));
    }
    PPC_RETURN_IF_ERROR(session.Run());
    PPC_ASSIGN_OR_RETURN(*outcome,
                         session.RequestClustering(inputs_.plan.holder_order[0],
                                                   inputs_.request));
    return Status::OK();
  }

  /// ClusteringSession::RunSchedule + RequestClustering, with the steps
  /// executed (and timed) from here instead of by ScheduleExecutor.
  Status RunTraced(Network* network, int job, int64_t begin, Parties* parties,
                   ClusteringOutcome* outcome) {
    ThirdParty* tp = parties->third_party.get();
    std::map<std::string, DataHolder*> by_name;
    CancelToken cancel;
    cancel.ArmDeadline(workload_.config.deadline_ms);
    tp->BindCancelToken(&cancel);
    for (auto& holder : parties->holders) {
      holder->BindCancelToken(&cancel);
      by_name[holder->name()] = holder.get();
    }
    for (const std::string& name : PartyNames(inputs_.plan)) {
      PPC_RETURN_IF_ERROR(network->RegisterParty(name));
    }
    PPC_ASSIGN_OR_RETURN(Schedule schedule,
                         BuildJobSchedule(workload_, inputs_));
    AddSetupSpan(tracer_, job, 0, begin);

    const std::vector<ScheduleStep>& steps = schedule.steps();
    auto holder_of = [&](const ScheduleStep& step) -> DataHolder* {
      auto it = by_name.find(step.actor);
      return it == by_name.end() ? nullptr : it->second;
    };
    if (workload_.config.num_threads <= 1) {
      for (size_t i = 0; i < steps.size(); ++i) {
        PPC_RETURN_IF_ERROR(
            TracedStep(schedule, i, holder_of(steps[i]), tp, tracer_, job));
      }
    } else {
      std::vector<std::function<Status()>> tasks;
      std::vector<std::vector<uint32_t>> deps;
      for (size_t i = 0; i < steps.size(); ++i) {
        tasks.push_back([&, i] {
          return TracedStep(schedule, i, holder_of(steps[i]), tp, tracer_,
                            job);
        });
        deps.push_back(steps[i].deps);
      }
      PPC_RETURN_IF_ERROR(RunDagTasks(std::move(tasks), deps,
                                      workload_.config.num_threads));
    }

    DataHolder* requester = parties->holders[0].get();
    return Timed(tracer_, job, kNoStep, "cluster.request", 1, [&]() -> Status {
      PPC_RETURN_IF_ERROR(
          requester->SendClusterRequest(tp->name(), inputs_.request));
      PPC_RETURN_IF_ERROR(tp->ServeClusterRequest(requester->name()));
      PPC_ASSIGN_OR_RETURN(*outcome,
                           requester->ReceiveClusterOutcome(tp->name()));
      return Status::OK();
    });
  }

  const Workload& workload_;
  const Inputs& inputs_;
  const Reference& reference_;
  Tracer* tracer_;
  InMemoryNetwork network_;
  std::atomic<size_t> in_flight_{0};
  int64_t construction_ns_ = 0;
  mutable Mutex stats_mutex_;
  ChannelStats wire_total_ GUARDED_BY(stats_mutex_);
  std::map<std::string, ChannelStats> session_totals_ GUARDED_BY(stats_mutex_);
};

// -- Daemon fleet -------------------------------------------------------------

/// The `serve` deployment in one process: one TcpNetwork endpoint per
/// party on loopback, each with its own SessionRegistry; a job is one
/// session started on every registry.
class DaemonFleet final : public Fleet {
 public:
  DaemonFleet(const Workload& workload, const Inputs& inputs,
              const Reference& reference, Tracer* tracer)
      : workload_(workload),
        inputs_(inputs),
        reference_(reference),
        tracer_(tracer) {}

  ~DaemonFleet() override {
    // Join every session before any endpoint goes away.
    for (Endpoint& endpoint : endpoints_) endpoint.registry.reset();
  }

  Status Init() {
    const int64_t begin = NowNs();
    const std::vector<std::string> names = PartyNames(inputs_.plan);
    for (const std::string& name : names) {
      PPC_ASSIGN_OR_RETURN(std::unique_ptr<TcpNetwork> network,
                           TcpNetwork::Create(TcpNetwork::Options()));
      network->set_receive_timeout(kReceiveTimeout);
      PPC_RETURN_IF_ERROR(network->RegisterParty(name));
      endpoints_.push_back({name, std::move(network), nullptr});
    }
    for (Endpoint& endpoint : endpoints_) {
      for (const Endpoint& peer : endpoints_) {
        if (&peer == &endpoint) continue;
        PPC_RETURN_IF_ERROR(endpoint.network->AddRemoteParty(
            peer.party, "127.0.0.1", peer.network->listen_port()));
        if (workload_.link_delay_ms > 0) {
          // The bench_many_sessions / FaultyNetwork delay convention: the
          // sender's thread sleeps, so only its own session waits.
          const auto delay = std::chrono::milliseconds(workload_.link_delay_ms);
          endpoint.network->AddTap(endpoint.party, peer.party,
                                   [delay](const WireFrame&) {
                                     std::this_thread::sleep_for(delay);
                                   });
        }
        if (tracer_ != nullptr) {
          endpoint.network->AddTap(
              endpoint.party, peer.party,
              [tracer = tracer_](const WireFrame& f) { tracer->AddFrame(f); });
        }
      }
      endpoint.registry =
          std::make_unique<SessionRegistry>(endpoint.network.get());
    }
    construction_ns_ = NowNs() - begin;
    return Status::OK();
  }

  void Start(const std::string& session, int job, bool traced,
             JobResult* result) override {
    result->traced = traced;
    const int64_t begin = NowNs();
    for (size_t p = 0; p < endpoints_.size(); ++p) {
      Status started = endpoints_[p].registry->StartSession(
          session, p == 0 ? ThirdPartyBody(job, traced, result)
                          : HolderBody(p - 1, job, traced, result));
      if (!started.ok() && result->status.ok()) result->status = started;
    }
    result->start_cost_ns = NowNs() - begin;
  }

  void Wait(const std::string& session, JobResult* result) override {
    for (Endpoint& endpoint : endpoints_) {
      Status status = endpoint.registry->WaitSession(session);
      if (!status.ok() && result->status.ok()) result->status = status;
    }
    result->end_ns = *std::max_element(
        result->party_end_ns, result->party_end_ns + endpoints_.size());
  }

  size_t InFlight() const override {
    return endpoints_[0].registry->ActiveCount();
  }
  ChannelStats WireTotal() const override {
    ChannelStats total;
    for (const Endpoint& endpoint : endpoints_) {
      Accumulate(&total, endpoint.network->GrandTotal());
    }
    return total;
  }
  ChannelStats SessionTotal(const std::string& session) const override {
    // Each endpoint accounts the channels its own party sends on.
    const std::vector<std::string> names = PartyNames(inputs_.plan);
    ChannelStats total;
    for (const Endpoint& endpoint : endpoints_) {
      AddSessionStats(*endpoint.network, session, endpoint.party, names,
                      &total);
    }
    return total;
  }
  int64_t construction_ns() const override { return construction_ns_; }

 private:
  struct Endpoint {
    std::string party;
    std::unique_ptr<TcpNetwork> network;
    std::unique_ptr<SessionRegistry> registry;
  };

  /// `serve --role=third-party`'s session body.
  SessionRegistry::SessionBody ThirdPartyBody(int job, bool traced,
                                              JobResult* result) {
    return [this, job, traced, result](Network* net, CancelToken* cancel) {
      const int64_t begin = NowNs();
      cancel->ArmDeadline(workload_.config.deadline_ms);
      ThirdParty tp(inputs_.plan.third_party, net, workload_.config,
                    inputs_.schema, inputs_.tp_entropy);
      tp.BindCancelToken(cancel);
      const std::string& requester = inputs_.plan.holder_order[0];
      Status status;
      if (!traced) {
        status = PartyRunner::RunThirdParty(&tp, inputs_.plan, inputs_.schema);
        if (status.ok()) status = tp.ServeClusterRequest(requester);
      } else {
        status = [&]() -> Status {
          PPC_ASSIGN_OR_RETURN(Schedule schedule,
                               Schedule::Build(inputs_.plan, inputs_.schema));
          AddSetupSpan(tracer_, job, 0, begin);
          PPC_RETURN_IF_ERROR(RunOwnSteps(schedule, nullptr, &tp, job));
          return Timed(tracer_, job, kNoStep, "cluster.serve", 0,
                       [&] { return tp.ServeClusterRequest(requester); });
        }();
      }
      result->party_end_ns[0] = NowNs();
      return status;
    };
  }

  /// `serve --role=holder`'s session body; holder 0 requests clustering.
  SessionRegistry::SessionBody HolderBody(size_t h, int job, bool traced,
                                          JobResult* result) {
    return [this, h, job, traced, result](Network* net, CancelToken* cancel) {
      const int64_t begin = NowNs();
      const int party = static_cast<int>(h) + 1;
      cancel->ArmDeadline(workload_.config.deadline_ms);
      DataHolder holder(inputs_.plan.holder_order[h], net, workload_.config,
                        inputs_.holder_entropy[h]);
      holder.BindCancelToken(cancel);
      ClusteringOutcome outcome;
      Status status = [&]() -> Status {
        PPC_RETURN_IF_ERROR(holder.SetData(inputs_.parts[h].data));
        if (!traced) {
          PPC_RETURN_IF_ERROR(
              PartyRunner::RunHolder(&holder, inputs_.plan, inputs_.schema));
        } else {
          PPC_ASSIGN_OR_RETURN(Schedule schedule,
                               Schedule::Build(inputs_.plan, inputs_.schema));
          AddSetupSpan(tracer_, job, party, begin);
          PPC_RETURN_IF_ERROR(RunOwnSteps(schedule, &holder, nullptr, job));
        }
        if (h != 0) return Status::OK();
        auto request = [&]() -> Status {
          PPC_ASSIGN_OR_RETURN(outcome, PartyRunner::RequestClustering(
                                            &holder, inputs_.plan,
                                            inputs_.request));
          return Status::OK();
        };
        return traced ? Timed(tracer_, job, kNoStep, "cluster.request", party,
                              request)
                      : request();
      }();
      result->party_end_ns[party] = NowNs();
      if (status.ok() && h == 0) status = MatchReference(outcome, reference_);
      return status;
    };
  }

  /// ScheduleExecutor::RunParty: this party's steps in canonical order.
  Status RunOwnSteps(const Schedule& schedule, DataHolder* holder,
                     ThirdParty* tp, int job) {
    const std::string& self = holder != nullptr ? holder->name() : tp->name();
    for (size_t i = 0; i < schedule.steps().size(); ++i) {
      if (schedule.steps()[i].actor != self) continue;
      PPC_RETURN_IF_ERROR(TracedStep(schedule, i, holder, tp, tracer_, job));
    }
    return Status::OK();
  }

  const Workload& workload_;
  const Inputs& inputs_;
  const Reference& reference_;
  Tracer* tracer_;
  std::vector<Endpoint> endpoints_;  // roster order: TP, then holders
  int64_t construction_ns_ = 0;
};

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = MakeWorkloads();
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : Workloads()) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

Result<Inputs> MakeInputs(const Workload& workload, uint64_t seed,
                          double seconds) {
  Inputs inputs;
  auto data_prng = MakePrng(PrngKind::kXoshiro256, SubSeed(seed, 0));
  LabeledDataset dataset;
  if (workload.mixed_data) {
    // Separated enough that average linkage recovers the generator's
    // clusters on every seed (the reference's adjusted Rand gate): the
    // library defaults fall below 0.9 on about half of all seeds, these
    // stayed above 0.96 on 400.
    Generators::MixedOptions options;
    options.center_spacing = 24.0;
    options.string_mutation_rate = 0.02;
    options.categorical_noise = 0.02;
    options.categorical_domain = 8;
    PPC_ASSIGN_OR_RETURN(
        dataset, Generators::MixedClusters(workload.objects, options,
                                           workload.config.alphabet,
                                           data_prng.get()));
  } else {
    PPC_ASSIGN_OR_RETURN(
        dataset, Generators::GaussianMixture(
                     workload.objects,
                     {{{0.0, 0.0}, 1.0, 1.0},
                      {{10.0, 10.0}, 1.0, 1.0},
                      {{-10.0, 10.0}, 1.0, 1.0}},
                     data_prng.get()));
  }
  PPC_ASSIGN_OR_RETURN(inputs.parts,
                       Partitioner::RoundRobin(dataset, workload.holders));
  PPC_ASSIGN_OR_RETURN(LabeledDataset global,
                       Partitioner::Concatenate(inputs.parts));
  inputs.truth = global.labels;
  inputs.schema = dataset.data.schema();

  static const char* const kHolderNames[] = {"A", "B", "C", "D",
                                             "E", "F", "G"};
  if (workload.holders < 2 || workload.holders + 1 > kMaxParties) {
    return Status::InvalidArgument("unsupported holder count");
  }
  inputs.plan.third_party = "TP";
  for (size_t h = 0; h < workload.holders; ++h) {
    inputs.plan.holder_order.push_back(kHolderNames[h]);
    inputs.holder_entropy.push_back(SubSeed(seed, 10 + h));
  }
  inputs.tp_entropy = SubSeed(seed, 1);

  inputs.request.algorithm = ClusterAlgorithm::kHierarchical;
  inputs.request.linkage = Linkage::kAverage;
  inputs.request.num_clusters = 3;

  const double rate = workload.clients == 0 ? workload.rate_per_s
                                            : workload.nominal_jobs_per_s;
  inputs.jobs = std::max<size_t>(
      kMinJobs, static_cast<size_t>(std::ceil(seconds * rate)));
  if (workload.clients == 0) {
    // Poisson arrivals conditioned on their count: uniform instants over
    // the window that offers exactly `rate` jobs per second.
    const double window_s = static_cast<double>(inputs.jobs) / rate;
    auto arrival_prng = MakePrng(PrngKind::kXoshiro256, SubSeed(seed, 2));
    inputs.arrivals_s.resize(inputs.jobs);
    for (double& at : inputs.arrivals_s) {
      at = arrival_prng->NextUnitDouble() * window_s;
    }
    std::sort(inputs.arrivals_s.begin(), inputs.arrivals_s.end());
  }
  return inputs;
}

Result<Reference> BuildReference(const Workload& workload,
                                 const Inputs& inputs) {
  // The canonical reference: sequential executor, whole-matrix phases.
  Workload sequential = workload;
  sequential.config.num_threads = 1;
  sequential.config.tile_size = 0;
  InMemoryNetwork network;
  PPC_ASSIGN_OR_RETURN(Parties parties,
                       Parties::Build(sequential, inputs, &network));
  ClusteringSession session(&network, sequential.config, inputs.schema);
  PPC_RETURN_IF_ERROR(session.SetThirdParty(parties.third_party.get()));
  for (auto& holder : parties.holders) {
    PPC_RETURN_IF_ERROR(session.AddDataHolder(holder.get()));
  }
  PPC_RETURN_IF_ERROR(session.Run());
  PPC_ASSIGN_OR_RETURN(
      ClusteringOutcome outcome,
      session.RequestClustering(inputs.plan.holder_order[0], inputs.request));

  Reference reference;
  reference.outcome_bytes = SerializeOutcome(outcome);
  PPC_ASSIGN_OR_RETURN(
      reference.adjusted_rand,
      Quality::AdjustedRandIndex(outcome.FlatLabels(inputs.truth.size()),
                                 inputs.truth));
  PPC_ASSIGN_OR_RETURN(reference.merged,
                       parties.third_party->MergedMatrix({}));
  return reference;
}

Result<Schedule> BuildJobSchedule(const Workload& workload,
                                  const Inputs& inputs) {
  // Mirrors ClusteringSession::RunSchedule's options.
  Schedule::Options options;
  options.granularity = workload.config.schedule_granularity;
  options.tile_size = workload.config.tile_size;
  options.masking = workload.config.masking_mode;
  if (options.tile_size > 0) {
    for (const LabeledDataset& part : inputs.parts) {
      options.holder_objects.push_back(part.data.NumRows());
    }
  }
  return Schedule::Build(inputs.plan, inputs.schema, options);
}

Result<std::unique_ptr<Fleet>> MakeFleet(const Workload& workload,
                                         const Inputs& inputs,
                                         const Reference& reference,
                                         Tracer* tracer) {
  if (workload.daemon) {
    auto fleet =
        std::make_unique<DaemonFleet>(workload, inputs, reference, tracer);
    PPC_RETURN_IF_ERROR(fleet->Init());
    return std::unique_ptr<Fleet>(std::move(fleet));
  }
  auto fleet =
      std::make_unique<InMemoryFleet>(workload, inputs, reference, tracer);
  PPC_RETURN_IF_ERROR(fleet->Init());
  return std::unique_ptr<Fleet>(std::move(fleet));
}

}  // namespace ppc::e2e
