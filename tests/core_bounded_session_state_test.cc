// Bounded session state: a long-running daemon serves job after job, so a
// finished session must leave nothing behind but a compact record — its
// final Status in the registry and its final send counters in the
// transport. These tests run many jobs through registries over both
// backends and then assert that no live registry entry, transport channel
// or endpoint queue is left, that the retained records stay exact, that a
// retired id can never carry traffic again, and that a parked receive is
// woken only by what concerns it: a frame on its own queue, a purge of its
// session, or its session's cancel token.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "core/party_runner.h"
#include "core/session_registry.h"
#include "data/generators.h"
#include "data/partition.h"
#include "net/faulty_network.h"
#include "net/in_memory_network.h"
#include "net/tcp_network.h"
#include "session_test_util.h"

namespace ppc {
namespace {

using Clock = std::chrono::steady_clock;

constexpr uint64_t kEntropyBase = 9000;
constexpr std::chrono::milliseconds kNetTimeout{20000};
constexpr uint64_t kJobDeadlineMs = 10000;
const std::vector<std::string> kParties = {"TP", "A", "B"};

enum class BackendKind { kInMemory, kTcp };

std::string ParamName(const ::testing::TestParamInfo<BackendKind>& info) {
  return info.param == BackendKind::kInMemory ? "InMemory" : "Tcp";
}

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Polls `done` for up to 10 s; for asynchronous (TCP) effects.
template <typename Predicate>
bool Eventually(Predicate done) {
  const auto give_up = Clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (Clock::now() > give_up) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// The typed failures a job may end in under an env-selected chaos
/// profile (a dead channel, or a peer waiting on one until its deadline).
bool IsTypedJobFailure(StatusCode code) {
  return code == StatusCode::kUnavailable ||
         code == StatusCode::kDeadlineExceeded ||
         code == StatusCode::kDataLoss ||
         code == StatusCode::kProtocolViolation;
}

/// One small clustering job: TP plus holders A and B.
struct Job {
  LabeledDataset data;
  std::vector<LabeledDataset> parts;
  ProtocolConfig config;
  SessionPlan plan;
  ClusterRequest request;

  Job() {
    auto prng = MakePrng(PrngKind::kXoshiro256, 17);
    Generators::MixedOptions options;
    options.num_clusters = 2;
    data = Generators::MixedClusters(10, options, Alphabet::Dna(), prng.get())
               .TakeValue();
    parts = Partitioner::RoundRobin(data, 2).TakeValue();
    plan.holder_order = {"A", "B"};
    request.num_clusters = 2;
  }

  const Schema& schema() const { return data.data.schema(); }

  /// Runs party `role` ("TP", "A" or "B") of one session over `net`. The
  /// requester A writes the published outcome to `*outcome`.
  Status RunRole(const std::string& role, Network* net, CancelToken* cancel,
                 std::string* outcome) const {
    if (cancel != nullptr) cancel->ArmDeadline(kJobDeadlineMs);
    if (role == "TP") {
      ThirdParty tp("TP", net, config, schema(), kEntropyBase);
      tp.BindCancelToken(cancel);
      PPC_RETURN_IF_ERROR(PartyRunner::RunThirdParty(&tp, plan, schema()));
      return tp.ServeClusterRequest("A");
    }
    const size_t h = role == "A" ? 0 : 1;
    DataHolder holder(role, net, config, kEntropyBase + 1 + h);
    holder.BindCancelToken(cancel);
    PPC_RETURN_IF_ERROR(holder.SetData(parts[h].data));
    PPC_RETURN_IF_ERROR(PartyRunner::RunHolder(&holder, plan, schema()));
    if (h != 0) return Status::OK();
    PPC_ASSIGN_OR_RETURN(ClusteringOutcome published,
                         PartyRunner::RequestClustering(&holder, plan, request));
    *outcome = published.ToString();
    return Status::OK();
  }

  /// All three roles of one session over one transport, TP and B on their
  /// own threads; the first failure wins.
  Status RunAllRoles(Network* net, CancelToken* cancel,
                     std::string* outcome) const {
    Status tp_status, b_status;
    std::thread tp([&] { tp_status = RunRole("TP", net, cancel, nullptr); });
    std::thread b([&] { b_status = RunRole("B", net, cancel, nullptr); });
    Status a_status = RunRole("A", net, cancel, outcome);
    tp.join();
    b.join();
    PPC_RETURN_IF_ERROR(a_status);
    PPC_RETURN_IF_ERROR(b_status);
    return tp_status;
  }
};

/// Wire bytes seen by taps, per session and in total.
class TapLedger {
 public:
  void Add(const WireFrame& frame) EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    ChannelStats& session = by_session_[frame.session];
    session.messages += 1;
    session.wire_bytes += frame.wire_bytes.size();
    total_.messages += 1;
    total_.wire_bytes += frame.wire_bytes.size();
  }
  ChannelStats Session(const std::string& id) const EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    auto it = by_session_.find(id);
    return it == by_session_.end() ? ChannelStats{} : it->second;
  }
  ChannelStats Total() const EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return total_;
  }

 private:
  mutable Mutex mutex_;
  std::map<std::string, ChannelStats> by_session_ GUARDED_BY(mutex_);
  ChannelStats total_ GUARDED_BY(mutex_);
};

/// Three registries over one backend, deployed the way that backend is:
///   * in-memory: one transport hosts all three parties, and job j runs
///     as a whole session (every role) on registry j % 3;
///   * TCP: one endpoint per party with its own registry, and job j is one
///     session started on every registry, each running its own role (the
///     `serve` fleet).
/// With PPC_CHAOS_PROFILE set, every registry talks through a seeded
/// `FaultyNetwork` over its transport.
class Fleet {
 public:
  static std::unique_ptr<Fleet> Create(BackendKind kind) {
    auto fleet = std::unique_ptr<Fleet>(new Fleet(kind));
    if (kind == BackendKind::kInMemory) {
      auto net = std::make_unique<InMemoryNetwork>();
      for (const std::string& party : kParties) {
        EXPECT_TRUE(net->RegisterParty(party).ok());
      }
      fleet->transports_.push_back(std::move(net));
    } else {
      for (const std::string& party : kParties) {
        auto created = TcpNetwork::Create({});
        EXPECT_TRUE(created.ok()) << created.status().ToString();
        if (!created.ok()) return nullptr;
        EXPECT_TRUE((*created)->RegisterParty(party).ok());
        fleet->tcp_.push_back(created->get());
        fleet->transports_.push_back(std::move(created).TakeValue());
      }
      for (size_t p = 0; p < kParties.size(); ++p) {
        for (size_t q = 0; q < kParties.size(); ++q) {
          if (p == q) continue;
          EXPECT_TRUE(fleet->tcp_[p]
                          ->AddRemoteParty(kParties[q], "127.0.0.1",
                                           fleet->tcp_[q]->listen_port())
                          .ok());
        }
      }
    }
    for (auto& transport : fleet->transports_) {
      transport->set_receive_timeout(kNetTimeout);
      for (const std::string& from : kParties) {
        for (const std::string& to : kParties) {
          if (from == to || !fleet->Sends(transport.get(), from)) continue;
          transport->AddTap(from, to, [ledger = &fleet->ledger_](
                                          const WireFrame& frame) {
            ledger->Add(frame);
          });
        }
      }
      Network* wire = transport.get();
      if (const char* profile_name = testutil::ChaosProfileFromEnv()) {
        auto profile = FaultProfileFromName(profile_name);
        EXPECT_TRUE(profile.ok()) << profile.status().ToString();
        fleet->chaos_.push_back(std::make_unique<FaultyNetwork>(
            transport.get(), *profile, testutil::ChaosSeedFromEnv()));
        wire = fleet->chaos_.back().get();
      }
      fleet->wires_.push_back(wire);
    }
    for (size_t r = 0; r < kParties.size(); ++r) {
      fleet->registries_.push_back(std::make_unique<SessionRegistry>(
          fleet->wires_[kind == BackendKind::kInMemory ? 0 : r]));
    }
    return fleet;
  }

  ~Fleet() {
    // Every session joins before any transport goes away.
    registries_.clear();
  }

  /// Starts job `session`; its requester's outcome lands in `*outcome`.
  void Start(const Job& job, int index, const std::string& session,
             std::string* outcome) {
    if (kind_ == BackendKind::kInMemory) {
      ASSERT_TRUE(registries_[index % 3]
                      ->StartSession(session,
                                     [&job, outcome](Network* net,
                                                     CancelToken* cancel) {
                                       return job.RunAllRoles(net, cancel,
                                                              outcome);
                                     })
                      .ok());
      return;
    }
    for (size_t r = 0; r < kParties.size(); ++r) {
      const std::string role = kParties[r];
      ASSERT_TRUE(registries_[r]
                      ->StartSession(session,
                                     [&job, role, outcome](
                                         Network* net, CancelToken* cancel) {
                                       return job.RunRole(role, net, cancel,
                                                          outcome);
                                     })
                      .ok());
    }
  }

  /// The job's status: the first failure among the registries running it.
  Status Wait(int index, const std::string& session) {
    if (kind_ == BackendKind::kInMemory) {
      return registries_[index % 3]->WaitSession(session);
    }
    Status first;
    for (auto& registry : registries_) {
      Status status = registry->WaitSession(session);
      if (!status.ok() && first.ok()) first = status;
    }
    return first;
  }

  /// Sum of one session's send counters over every endpoint.
  ChannelStats SessionStats(const std::string& session) const {
    ChannelStats total;
    for (const auto& transport : transports_) {
      for (const std::string& from : kParties) {
        for (const std::string& to : kParties) {
          if (from == to) continue;
          const ChannelStats stats = transport->StatsOn(session, from, to);
          total.messages += stats.messages;
          total.wire_bytes += stats.wire_bytes;
        }
      }
    }
    return total;
  }

  ChannelStats GrandTotal() const {
    ChannelStats total;
    for (const auto& transport : transports_) {
      total.messages += transport->GrandTotal().messages;
      total.wire_bytes += transport->GrandTotal().wire_bytes;
    }
    return total;
  }

  const std::vector<std::unique_ptr<SessionRegistry>>& registries() const {
    return registries_;
  }
  const std::vector<std::unique_ptr<ChannelTransport>>& transports() const {
    return transports_;
  }
  const TapLedger& ledger() const { return ledger_; }

 private:
  explicit Fleet(BackendKind kind) : kind_(kind) {}

  /// Whether `transport` hosts (and so accounts and taps) sender `from`.
  bool Sends(ChannelTransport* transport, const std::string& from) const {
    if (kind_ == BackendKind::kInMemory) return true;
    for (size_t p = 0; p < tcp_.size(); ++p) {
      if (tcp_[p] == transport) return kParties[p] == from;
    }
    return false;
  }

  BackendKind kind_;
  TapLedger ledger_;
  std::vector<std::unique_ptr<ChannelTransport>> transports_;
  std::vector<TcpNetwork*> tcp_;
  std::vector<std::unique_ptr<FaultyNetwork>> chaos_;
  std::vector<Network*> wires_;
  std::vector<std::unique_ptr<SessionRegistry>> registries_;
};

std::unique_ptr<ChannelTransport> MakeTransport(BackendKind kind) {
  if (kind == BackendKind::kInMemory) {
    return std::make_unique<InMemoryNetwork>();
  }
  auto created = TcpNetwork::Create({});
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  return created.ok() ? std::move(created).TakeValue() : nullptr;
}

class BoundedSessionStateTest : public ::testing::TestWithParam<BackendKind> {
 protected:
  void SetUp() override {
    net_ = MakeTransport(GetParam());
    ASSERT_NE(net_, nullptr);
    for (const std::string& party : kParties) {
      ASSERT_TRUE(net_->RegisterParty(party).ok());
    }
    net_->set_receive_timeout(kNetTimeout);
  }

  std::unique_ptr<ChannelTransport> net_;
};

TEST_P(BoundedSessionStateTest, TwoHundredJobsLeaveNoLiveState) {
  const Job job;
  // The reference: the same three roles over a bare in-memory transport.
  std::string reference;
  {
    InMemoryNetwork bare;
    for (const std::string& party : kParties) {
      ASSERT_TRUE(bare.RegisterParty(party).ok());
    }
    bare.set_receive_timeout(kNetTimeout);
    ASSERT_TRUE(job.RunAllRoles(&bare, nullptr, &reference).ok());
  }

  auto fleet = Fleet::Create(GetParam());
  ASSERT_NE(fleet, nullptr);
  constexpr int kJobs = 200;
  constexpr int kWave = 20;  // Jobs in flight at once.
  std::vector<std::string> outcomes(kJobs);
  std::vector<Status> statuses(kJobs);
  for (int begin = 0; begin < kJobs; begin += kWave) {
    for (int j = begin; j < begin + kWave; ++j) {
      fleet->Start(job, j, "job-" + std::to_string(j), &outcomes[j]);
    }
    for (int j = begin; j < begin + kWave; ++j) {
      statuses[j] = fleet->Wait(j, "job-" + std::to_string(j));
    }
  }

  int completed = 0;
  for (int j = 0; j < kJobs; ++j) {
    if (statuses[j].ok()) {
      ++completed;
      EXPECT_EQ(outcomes[j], reference) << "job-" << j;
    } else {
      EXPECT_TRUE(IsTypedJobFailure(statuses[j].code()))
          << "job-" << j << ": " << statuses[j].ToString();
    }
  }
  if (testutil::ChaosProfileFromEnv() == nullptr) {
    EXPECT_EQ(completed, kJobs);
  }

  // Nothing live is left: no registry entry, channel, or queue.
  size_t ids = 0;
  for (const auto& registry : fleet->registries()) {
    EXPECT_EQ(registry->ActiveCount(), 0u);
    ids += registry->SessionIds().size();
  }
  EXPECT_EQ(ids, GetParam() == BackendKind::kInMemory ? 200u : 600u);
  for (const auto& transport : fleet->transports()) {
    EXPECT_EQ(transport->LiveChannelCountForTesting(), 0u);
    EXPECT_EQ(transport->QueueCountForTesting(), 0u);
  }

  // The retained counters are exact: per session, and in total.
  for (int j = 0; j < kJobs; ++j) {
    const std::string session = "job-" + std::to_string(j);
    const ChannelStats counted = fleet->SessionStats(session);
    const ChannelStats tapped = fleet->ledger().Session(session);
    EXPECT_EQ(counted.messages, tapped.messages) << session;
    EXPECT_EQ(counted.wire_bytes, tapped.wire_bytes) << session;
    if (statuses[j].ok()) {
      EXPECT_GT(counted.messages, 0u) << session;
    }
  }
  EXPECT_EQ(fleet->GrandTotal().messages, fleet->ledger().Total().messages);
  EXPECT_EQ(fleet->GrandTotal().wire_bytes,
            fleet->ledger().Total().wire_bytes);
}

TEST_P(BoundedSessionStateTest, ReapedSessionsKeepStatusAndCounters) {
  SessionRegistry registry(net_.get());
  ASSERT_TRUE(registry
                  .StartSession("ok",
                                [](Network* net, CancelToken*) {
                                  return net->Send("A", "B", "t", "hello");
                                })
                  .ok());
  ASSERT_TRUE(registry
                  .StartSession("bad",
                                [](Network* net, CancelToken*) {
                                  PPC_RETURN_IF_ERROR(
                                      net->Send("A", "TP", "t", "bye"));
                                  return Status::DataLoss("body failed");
                                })
                  .ok());
  EXPECT_EQ(registry.WaitAll().code(), StatusCode::kDataLoss);
  EXPECT_EQ(registry.ActiveCount(), 0u);
  EXPECT_EQ(net_->LiveChannelCountForTesting(), 0u);
  EXPECT_EQ(net_->QueueCountForTesting(), 0u);

  // Reaped, yet the recorded status is still there, repeatedly.
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(registry.WaitSession("ok").ok());
    Status bad = registry.WaitSession("bad");
    EXPECT_EQ(bad.code(), StatusCode::kDataLoss);
    EXPECT_EQ(bad.message(), "body failed");
  }
  EXPECT_EQ(registry.SessionIds(), (std::vector<std::string>{"bad", "ok"}));
  EXPECT_TRUE(registry.CancelSession("ok", Status::Internal("late")).ok());
  EXPECT_EQ(registry.CancelSession("ghost", Status::Internal("x")).code(),
            StatusCode::kNotFound);

  // Ids are single-use, in the registry and in the transport.
  EXPECT_EQ(registry
                .StartSession("ok",
                              [](Network*, CancelToken*) {
                                return Status::OK();
                              })
                .code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(net_->SendOn("ok", "A", "B", "t", "again").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(net_->InjectFrameOn("ok", "A", "B", "t", "raw").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(net_->ReceiveOn("ok", "B", "A", "", nullptr).status().code(),
            StatusCode::kFailedPrecondition);
  if (net_->security() == TransportSecurity::kAuthenticatedEncryption) {
    EXPECT_EQ(net_->SetNonceCounterForTesting("ok", "A", "B", 7).code(),
              StatusCode::kFailedPrecondition);
  }
  EXPECT_EQ(net_->LiveChannelCountForTesting(), 0u);

  // The final counters outlive the channels.
  EXPECT_EQ(net_->StatsOn("ok", "A", "B").messages, 1u);
  EXPECT_EQ(net_->StatsOn("ok", "A", "B").payload_bytes, 5u);
  EXPECT_EQ(net_->StatsOn("bad", "A", "TP").messages, 1u);
  EXPECT_EQ(net_->TotalSentByOn("ok", "A").messages, 1u);
  EXPECT_EQ(net_->GrandTotalOn("bad").messages, 1u);
  EXPECT_EQ(net_->StatsFor("A", "B").messages, 1u);
  EXPECT_EQ(net_->TotalSentBy("A").messages, 2u);
  const ChannelStats before = net_->GrandTotal();
  EXPECT_EQ(before.messages, 2u);

  // Live traffic adds to the retired totals; nothing ever subtracts.
  ASSERT_TRUE(net_->SendOn("live", "A", "B", "t", "x").ok());
  EXPECT_EQ(net_->GrandTotal().messages, 3u);
  EXPECT_EQ(net_->StatsFor("A", "B").messages, 2u);
  net_->PurgeSession("live");
  EXPECT_EQ(net_->GrandTotal().messages, 3u);
  EXPECT_GE(net_->GrandTotal().wire_bytes, before.wire_bytes);

  // ResetStats zeroes the counters, but retired ids stay retired.
  net_->ResetStats();
  EXPECT_EQ(net_->GrandTotal().messages, 0u);
  EXPECT_EQ(net_->StatsOn("ok", "A", "B").messages, 0u);
  EXPECT_EQ(net_->SendOn("ok", "A", "B", "t", "again").code(),
            StatusCode::kFailedPrecondition);
}

TEST_P(BoundedSessionStateTest, CancelSessionReleasesParkedReceiveAtOnce) {
  // Five rounds; the median bounds the release latency, so one scheduler
  // hiccup on a loaded machine cannot fail the test, while a 50 ms poll
  // slice (the mechanism this replaced) would fail every round.
  std::vector<double> release_ms;
  SessionRegistry registry(net_.get());
  for (int round = 0; round < 5; ++round) {
    const std::string id = "parked-" + std::to_string(round);
    Clock::time_point returned;
    ASSERT_TRUE(registry
                    .StartSession(id,
                                  [&returned](Network* net,
                                              CancelToken* cancel) {
                                    auto got =
                                        net->Receive("TP", "A", "", cancel);
                                    returned = Clock::now();
                                    return got.status();
                                  })
                    .ok());
    ASSERT_TRUE(Eventually([&] { return net_->QueueCountForTesting() == 1; }));
    const uint64_t wakes = net_->ReceiveWakeupsForTesting();
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    // Parked means asleep: no periodic wake-ups to poll the token.
    EXPECT_EQ(net_->ReceiveWakeupsForTesting(), wakes);
    const auto cancelled = Clock::now();
    ASSERT_TRUE(
        registry.CancelSession(id, Status::Unavailable("stopped by test"))
            .ok());
    Status status = registry.WaitSession(id);
    EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status.ToString();
    EXPECT_NE(status.message().find("stopped by test"), std::string::npos);
    release_ms.push_back(
        std::chrono::duration<double, std::milli>(returned - cancelled)
            .count());
    EXPECT_LT(release_ms.back(), 1000.0);
    EXPECT_EQ(net_->QueueCountForTesting(), 0u);
  }
  std::sort(release_ms.begin(), release_ms.end());
  EXPECT_LT(release_ms[2], 10.0) << "median release latency";
}

TEST_P(BoundedSessionStateTest, FrameWakesOnlyItsOwnQueue) {
  Result<Message> got = Status::Internal("never received");
  std::thread receiver(
      [&] { got = net_->ReceiveOn("s1", "TP", "A", "t", nullptr); });
  ASSERT_TRUE(Eventually([&] { return net_->QueueCountForTesting() == 1; }));
  const uint64_t wakes = net_->ReceiveWakeupsForTesting();

  // Traffic on other queues of the same endpoint: another session from
  // the same sender, and the same session from another sender.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(net_->SendOn("s2", "A", "TP", "t", "other session").ok());
    ASSERT_TRUE(net_->SendOn("s1", "B", "TP", "t", "other sender").ok());
  }
  ASSERT_TRUE(Eventually([&] {
    return net_->PendingCountOn("s2", "TP") == 20 &&
           net_->PendingCountOn("s1", "TP") == 20;
  }));
  EXPECT_EQ(net_->ReceiveWakeupsForTesting(), wakes)
      << "a frame for another queue woke the parked receive";

  ASSERT_TRUE(net_->SendOn("s1", "A", "TP", "t", "mine").ok());
  receiver.join();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->payload, "mine");
  EXPECT_EQ(net_->ReceiveWakeupsForTesting(), wakes + 1);
}

TEST_P(BoundedSessionStateTest, DeadlineExpiryIsTypedDeadlineExceeded) {
  SessionRegistry registry(net_.get());
  const auto start = Clock::now();
  ASSERT_TRUE(registry
                  .StartSession("slow",
                                [](Network* net, CancelToken* cancel) {
                                  cancel->ArmDeadline(60);
                                  return net->Receive("TP", "A", "t", cancel)
                                      .status();
                                })
                  .ok());
  Status status = registry.WaitSession("slow");
  const double elapsed = MsSince(start);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded) << status.ToString();
  EXPECT_NE(status.message().find("session 'slow'"), std::string::npos)
      << status.ToString();
  EXPECT_GE(elapsed, 60.0);
  EXPECT_LT(elapsed, 5000.0);
  EXPECT_EQ(net_->QueueCountForTesting(), 0u);
}

TEST_P(BoundedSessionStateTest, PurgeReleasesParkedReceive) {
  Result<Message> got = Status::Internal("never received");
  std::thread receiver(
      [&] { got = net_->ReceiveOn("job", "TP", "A", "", nullptr); });
  ASSERT_TRUE(Eventually([&] { return net_->QueueCountForTesting() == 1; }));
  ASSERT_TRUE(net_->SendOn("job", "B", "TP", "t", "undelivered").ok());
  ASSERT_TRUE(
      Eventually([&] { return net_->PendingCountOn("job", "TP") == 1; }));
  net_->PurgeSession("job");
  receiver.join();
  EXPECT_EQ(got.status().code(), StatusCode::kFailedPrecondition)
      << got.status().ToString();
  // The waiter's queue went with the waiter; the undelivered frame with
  // the purge.
  EXPECT_EQ(net_->QueueCountForTesting(), 0u);
  EXPECT_EQ(net_->PendingCount("TP"), 0u);
  EXPECT_EQ(net_->LiveChannelCountForTesting(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BoundedSessionStateTest,
                         ::testing::Values(BackendKind::kInMemory,
                                           BackendKind::kTcp),
                         ParamName);

// Frames still in flight when the receiving endpoint retires their session
// are dropped on arrival and counted; they never re-create a queue or a
// channel with a fresh nonce counter.
TEST(BoundedSessionStateTcpTest, InboundFrameForRetiredSessionIsDropped) {
  auto sender = TcpNetwork::Create({});
  auto receiver = TcpNetwork::Create({});
  ASSERT_TRUE(sender.ok() && receiver.ok());
  ASSERT_TRUE((*sender)->RegisterParty("A").ok());
  ASSERT_TRUE((*receiver)->RegisterParty("TP").ok());
  ASSERT_TRUE((*sender)
                  ->AddRemoteParty("TP", "127.0.0.1",
                                   (*receiver)->listen_port())
                  .ok());

  (*receiver)->PurgeSession("done");
  ASSERT_TRUE((*sender)->SendOn("done", "A", "TP", "t", "late").ok());
  ASSERT_TRUE((*sender)->InjectFrameOn("done", "A", "TP", "t", "raw").ok());
  ASSERT_TRUE(Eventually([&] { return (*receiver)->DroppedFrameCount() == 2; }));
  EXPECT_EQ((*receiver)->QueueCountForTesting(), 0u);
  EXPECT_EQ((*receiver)->LiveChannelCountForTesting(), 0u);

  // A live session on the same connection is unaffected.
  ASSERT_TRUE((*sender)->SendOn("next", "A", "TP", "t", "fresh").ok());
  (*receiver)->set_receive_timeout(kNetTimeout);
  auto got = (*receiver)->ReceiveOn("next", "TP", "A", "t", nullptr);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->payload, "fresh");
}

}  // namespace
}  // namespace ppc
