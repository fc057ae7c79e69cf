// ppclust_cli — operate the privacy-preserving clustering pipeline from
// the command line, with CSV files playing the data holders' private
// partitions.
//
// Commands:
//
//   ppclust_cli generate --kind=mixed|dna|gaussian --objects=N --parties=K
//                        [--seed=S] [--prefix=PATH]
//       Writes K partition files PATH.part0.csv ... and PATH.labels.csv
//       (ground truth, for scoring only — a real deployment has none).
//
//   ppclust_cli cluster PART0.csv PART1.csv [...] [--clusters=K]
//                       [--linkage=single|complete|average|ward]
//                       [--algorithm=hier|kmedoids|dbscan]
//                       [--alphabet=dna|lowercase|identifier]
//                       [--weights=w0,w1,...] [--mode=batch|perpair]
//                       [--eps=0.2] [--minpts=4] [--newick=FILE]
//       Runs the full protocol with one data holder per file and prints
//       the published outcome (paper Fig. 13) plus traffic statistics.
//       --newick writes the TP-side dendrogram for phylogenetics tools
//       (it stays TP-side: branch lengths are distances, which the paper
//       requires the TP to keep from the holders).
//
//   ppclust_cli analyze PART0.csv PART1.csv [...] [--alphabet=...]
//                       [--mode=batch|perpair] [--threads=N]
//                       [--schedule=fine|grouped] [--tile-size=T]
//       Runs the protocol and prints the per-phase communication table:
//       messages, wire/payload bytes measured on channel taps, and the
//       schedule graph's closed-form payload prediction (phases 4-5 must
//       match to the byte, or the command fails). With --tile-size the
//       tiled graph is priced, per-tile headers and all.
//
//   ppclust_cli version
//       Prints the build version and the CPU paths the crypto and row
//       kernels dispatch to on this host (aes-ni/sha-ni/avx2 or their
//       software fallbacks).
//
//   Multi-process deployment: the same `cluster` command, one process per
//   party, connected over TCP (see README "Deployment modes"):
//
//   ppclust_cli cluster PART.csv --role=holder --party=A
//               --holders=A,B --peers=A=HOST:PORT,B=...,TP=...,COORD=...
//               [request flags as above]
//   ppclust_cli cluster --role=third-party --schema=ANY.csv
//               --holders=... --peers=...
//   ppclust_cli cluster --role=coordinator --holders=... --peers=...
//       Every process is launched with the same --holders roster and
//       --peers address map. Holders own one partition CSV each; the
//       third party needs only the agreed schema (the header/types of any
//       CSV with matching columns); the coordinator owns nothing and
//       prints the published outcome, so its stdout matches an in-process
//       `cluster` run on the concatenated partitions.
//
//   Daemon mode: the same processes stay resident and serve many
//   clustering jobs concurrently, each job a session multiplexed over the
//   daemons' single authenticated connection per party pair:
//
//   ppclust_cli serve PART.csv --role=holder --party=A --holders=A,B
//               --peers=A=...,B=...,TP=...,COORD=...
//   ppclust_cli serve --role=third-party --schema=ANY.csv --holders=...
//               --peers=...
//   ppclust_cli submit --jobs=N [--clusters=K] --holders=... --peers=...
//       `serve` loops on control-plane job submissions (topic ctl.job,
//       default session) and runs each job's protocol side on its own
//       session id via SessionRegistry. `submit` (run from the COORD
//       address) fires N jobs at every daemon, then collects and prints
//       each session's published outcome — byte-identical to the
//       in-process `cluster` output per job — and finally shuts the
//       daemons down (unless --shutdown=false).

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "analysis/comm_model.h"
#include "common/cancellation.h"
#include "common/string_util.h"
#include "core/session_registry.h"
#include "core/topics.h"
#include "crypto/aes128.h"
#include "crypto/sha256.h"
#include "distance/kernels.h"
#include "ppclust.h"

namespace ppc {
namespace {

// Like ParseDouble but additionally rejects nan/inf: a flag value typo
// must never silently poison every distance comparison downstream.
bool ParseFiniteDouble(const std::string& text, double* out) {
  double value = 0;
  if (!ParseDouble(text, &value) || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

struct Flags {
  std::vector<std::string> positional;
  std::map<std::string, std::string> named;
  // Flags given without '=value' (e.g. a bare --newick). Only --help
  // is valid that way; commands reject the rest.
  std::vector<std::string> bare;
  // First malformed flag value seen by GetInt/GetDouble; commands check
  // this before doing any work so a value typo cannot silently become 0.
  mutable std::string value_error;

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = named.find(key);
    return it == named.end() ? fallback : it->second;
  }
  int64_t GetInt(const std::string& key, int64_t fallback) const {
    auto it = named.find(key);
    if (it == named.end()) return fallback;
    int64_t value = 0;
    if (!ParseInt64(it->second, &value)) {
      RecordBadValue(key, it->second, "an integer");
      return fallback;
    }
    return value;
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = named.find(key);
    if (it == named.end()) return fallback;
    double value = 0;
    if (!ParseFiniteDouble(it->second, &value)) {
      RecordBadValue(key, it->second, "a finite number");
      return fallback;
    }
    return value;
  }

 private:
  void RecordBadValue(const std::string& key, const std::string& value,
                      const std::string& expected) const {
    if (value_error.empty()) {
      value_error = "--" + key + " expects " + expected + ", got '" + value +
                    "'";
    }
  }
};

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        flags.named[arg.substr(2)] = "true";
        flags.bare.push_back(arg.substr(2));
      } else {
        flags.named[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    } else {
      flags.positional.push_back(arg);
    }
  }
  return flags;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

constexpr char kUsage[] =
    "usage:\n"
    "  ppclust_cli generate --kind=mixed|dna|gaussian "
    "--objects=N --parties=K [--seed=S] [--prefix=PATH]\n"
    "  ppclust_cli cluster PART0.csv PART1.csv [...] "
    "[--clusters=K] [--linkage=single|complete|average|ward]\n"
    "              [--algorithm=hier|kmedoids|dbscan] "
    "[--eps=E] [--minpts=M]\n"
    "              [--alphabet=dna|lowercase|identifier] "
    "[--weights=w0,w1,...]\n"
    "              [--mode=batch|perpair] [--threads=N] [--tile-size=T]\n"
    "              [--schedule=fine|grouped] [--newick=FILE]\n"
    "  ppclust_cli analyze PART0.csv PART1.csv [...] "
    "[--alphabet=...] [--mode=...]\n"
    "              [--threads=N] [--schedule=fine|grouped] [--tile-size=T]\n"
    "              (per-phase predicted-vs-measured traffic)\n"
    "  ppclust_cli version   (build version + CPU kernel dispatch: "
    "aes-ni/sha-ni/avx2)\n"
    "  ppclust_cli cluster [PART.csv] --role=holder|third-party|coordinator\n"
    "              --holders=A,B,... --peers=NAME=HOST:PORT,...\n"
    "              [--party=NAME] [--schema=FILE.csv] [--third-party=TP]\n"
    "              [--coordinator=COORD] [--net-timeout-ms=30000]\n"
    "              [--entropy-seed=S]   (one OS process per party; see\n"
    "              README \"Deployment modes\")\n"
    "  ppclust_cli serve [PART.csv] --role=holder|third-party\n"
    "              --holders=... --peers=... [--max-inflight=N]\n"
    "              [--deadline-ms=MS] [--drain-ms=MS]   (resident daemon:\n"
    "              runs each submitted job as a concurrent session, flags\n"
    "              as above; bounds in-flight sessions, arms per-session\n"
    "              deadlines, and drains then cancels on shutdown)\n"
    "  ppclust_cli submit --jobs=N [--clusters=K] [--session-prefix=job-]\n"
    "              [--shutdown=true] [--deadline-ms=MS] --holders=...\n"
    "              --peers=...   (fire N concurrent jobs at the serve\n"
    "              daemons from the COORD address and print each session's\n"
    "              outcome, or a typed per-job error within the deadline)\n";

int Usage() {
  std::fprintf(stderr, "%s", kUsage);
  return 2;
}

int Help() {
  std::printf("%s", kUsage);
  return 0;
}

#ifndef PPCLUST_VERSION
#define PPCLUST_VERSION "unknown"
#endif

// `version` — the build version plus which CPU paths the crypto and row
// kernels dispatch to on this host. Bench captures record this line so a
// baseline states the hardware features it was measured with.
int RunVersion() {
  std::printf("ppclust %s\n", PPCLUST_VERSION);
  std::printf("  aes:  %s\n",
              Aes128::AesniSupported() ? "aes-ni" : "software");
  std::printf("  sha:  %s\n",
              Sha256::ShaNiSupported() ? "sha-ni" : "software");
  const DistanceKernels::Kernel rows = DistanceKernels::Active();
  if (DistanceKernels::Avx2Supported() &&
      rows == DistanceKernels::Kernel::kScalar) {
    std::printf("  rows: scalar (avx2 available; PPC_FORCE_SCALAR_KERNELS "
                "set)\n");
  } else {
    std::printf("  rows: %s\n", DistanceKernels::KernelToString(rows));
  }
  return 0;
}

// Rejects misspelled flag names: Flags::Get falls back to a default
// for unknown keys, which would otherwise silently ignore a typo.
// Also rejects value-less flags (a bare --newick would otherwise write
// a dendrogram to a file literally named 'true').
int CheckFlagNames(const Flags& flags,
                   const std::vector<std::string>& known) {
  if (!flags.bare.empty()) {
    return Fail("flag '--" + flags.bare.front() + "' requires a value");
  }
  for (const auto& [key, value] : flags.named) {
    bool found = false;
    for (const std::string& name : known) {
      if (key == name) {
        found = true;
        break;
      }
    }
    if (!found) return Fail("unknown flag '--" + key + "'");
  }
  return 0;
}

int RunGenerate(const Flags& flags) {
  if (int bad = CheckFlagNames(
          flags, {"kind", "objects", "parties", "seed", "prefix"})) {
    return bad;
  }
  if (!flags.positional.empty()) {
    return Fail("generate takes no positional arguments (did you mean --" +
                flags.positional.front() + "?)");
  }
  const std::string kind = flags.Get("kind", "mixed");
  const int64_t objects_flag = flags.GetInt("objects", 30);
  const int64_t parties_flag = flags.GetInt("parties", 2);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const std::string prefix = flags.Get("prefix", "ppclust_data");
  if (!flags.value_error.empty()) return Fail(flags.value_error);
  // Guard the unsigned casts: -1 would otherwise wrap to ~1.8e19.
  if (objects_flag < 0) return Fail("--objects must be non-negative");
  if (parties_flag < 1) return Fail("--parties must be positive");
  const size_t objects = static_cast<size_t>(objects_flag);
  const size_t parties = static_cast<size_t>(parties_flag);

  auto prng = MakePrng(PrngKind::kXoshiro256, seed);
  Result<LabeledDataset> generated = Status::InvalidArgument("unreachable");
  if (kind == "mixed") {
    Generators::MixedOptions options;
    generated = Generators::MixedClusters(objects, options, Alphabet::Dna(),
                                          prng.get());
  } else if (kind == "dna") {
    generated = Generators::DnaSequences(objects, {}, prng.get());
  } else if (kind == "gaussian") {
    generated = Generators::GaussianMixture(
        objects,
        {{{0.0, 0.0}, 1.0, 1.0},
         {{8.0, 8.0}, 1.0, 1.0},
         {{-8.0, 8.0}, 1.0, 1.0}},
        prng.get());
  } else {
    return Fail("unknown --kind '" + kind + "'");
  }
  if (!generated.ok()) return Fail(generated.status().ToString());

  auto parts = Partitioner::RoundRobin(*generated, parties);
  if (!parts.ok()) return Fail(parts.status().ToString());

  for (size_t p = 0; p < parts->size(); ++p) {
    std::string path = prefix + ".part" + std::to_string(p) + ".csv";
    Status written = Csv::WriteFile(path, (*parts)[p].data);
    if (!written.ok()) return Fail(written.ToString());
    std::printf("wrote %s (%zu objects)\n", path.c_str(),
                (*parts)[p].data.NumRows());
  }
  // Ground-truth labels in global (concatenated) order, for scoring.
  auto merged = Partitioner::Concatenate(*parts);
  if (!merged.ok()) return Fail(merged.status().ToString());
  std::string labels_path = prefix + ".labels.csv";
  std::ofstream labels(labels_path);
  labels << "label\n";
  for (int label : merged->labels) labels << label << "\n";
  std::printf("wrote %s (ground truth; not part of the protocol)\n",
              labels_path.c_str());
  return 0;
}

// Parses the protocol-configuration flags shared by every deployment mode
// (--alphabet, --mode, --threads). Returns 0 on success, the Fail() exit
// code otherwise.
int ParseProtocolConfig(const Flags& flags, ProtocolConfig* config) {
  const std::string alphabet = flags.Get("alphabet", "dna");
  if (alphabet == "dna") {
    config->alphabet = Alphabet::Dna();
  } else if (alphabet == "lowercase") {
    config->alphabet = Alphabet::LowercaseAscii();
  } else if (alphabet == "identifier") {
    config->alphabet = Alphabet::AlphanumericLower();
  } else {
    return Fail("unknown --alphabet '" + alphabet + "'");
  }
  const std::string mode = flags.Get("mode", "batch");
  if (mode == "perpair") {
    config->masking_mode = MaskingMode::kPerPair;
  } else if (mode != "batch") {
    return Fail("unknown --mode '" + mode + "'");
  }
  // Escape hatch for the concurrent engine's schedule graph: "fine" (the
  // default) exposes the full dependency structure, "grouped" keeps the
  // conservative responder-grouped serialization. Results are identical.
  const std::string schedule = flags.Get("schedule", "fine");
  if (schedule == "grouped") {
    config->schedule_granularity = ScheduleGranularity::kGrouped;
  } else if (schedule != "fine") {
    return Fail("unknown --schedule '" + schedule +
                "' (want fine or grouped)");
  }
  // The num_threads rule (core/config.h): 0 = auto, 1 = sequential,
  // n > 1 = concurrent engine with n workers.
  const int64_t threads_flag = flags.GetInt("threads", 1);
  if (threads_flag < 0) {
    return Fail("--threads must be non-negative (0 = hardware concurrency)");
  }
  config->num_threads = static_cast<size_t>(threads_flag);
  // Row-tile height for the quadratic phases: 0 (the default) sends one
  // row range per holder round; N > 0 streams phase-4/5 payloads as N-row
  // tiles. Results are bit-identical either way (core/config.h).
  const int64_t tile_flag = flags.GetInt("tile-size", 0);
  if (tile_flag < 0) {
    return Fail("--tile-size must be non-negative (0 = one tile per holder)");
  }
  config->tile_size = static_cast<size_t>(tile_flag);
  return 0;
}

// Parses and validates the clustering-request flags. Returns 0 on
// success; doing this before running the protocol means a typo fails fast
// instead of after the (expensive) masking rounds.
int ParseClusterRequest(const Flags& flags, ClusterRequest* request) {
  const int64_t clusters_flag = flags.GetInt("clusters", 3);
  if (clusters_flag < 1) return Fail("--clusters must be positive");
  request->num_clusters = static_cast<uint64_t>(clusters_flag);
  const std::string algorithm = flags.Get("algorithm", "hier");
  if (algorithm == "kmedoids") {
    request->algorithm = ClusterAlgorithm::kKMedoids;
  } else if (algorithm == "dbscan") {
    request->algorithm = ClusterAlgorithm::kDbscan;
    request->dbscan_eps = flags.GetDouble("eps", 0.2);
    if (request->dbscan_eps < 0) return Fail("--eps must be non-negative");
    const int64_t minpts_flag = flags.GetInt("minpts", 4);
    if (minpts_flag < 1) return Fail("--minpts must be positive");
    request->dbscan_min_points = static_cast<uint64_t>(minpts_flag);
  } else if (algorithm != "hier") {
    return Fail("unknown --algorithm '" + algorithm + "'");
  }
  if (algorithm != "dbscan" &&
      (flags.named.count("eps") || flags.named.count("minpts"))) {
    return Fail("--eps/--minpts only apply to --algorithm=dbscan");
  }
  const std::string linkage = flags.Get("linkage", "average");
  if (linkage == "single") {
    request->linkage = Linkage::kSingle;
  } else if (linkage == "complete") {
    request->linkage = Linkage::kComplete;
  } else if (linkage == "ward") {
    request->linkage = Linkage::kWard;
  } else if (linkage != "average") {
    return Fail("unknown --linkage '" + linkage + "'");
  }
  const std::string weights_flag = flags.Get("weights", "");
  if (!weights_flag.empty()) {
    for (const std::string& w : SplitString(weights_flag, ',')) {
      double weight = 0;
      if (!ParseFiniteDouble(w, &weight)) {
        return Fail("--weights expects finite numbers, got '" + w + "'");
      }
      request->weights.push_back(weight);
    }
  }
  return 0;
}

// Prints a published outcome exactly the way the in-process `cluster`
// command does, so multi-process runs can be diffed against it.
void PrintOutcome(const ClusteringOutcome& outcome) {
  std::printf("%s", outcome.ToString().c_str());
  if (outcome.silhouette.has_value()) {
    std::printf("# silhouette: %.3f\n", *outcome.silhouette);
  } else {
    std::printf("# silhouette: n/a (undefined for this outcome)\n");
  }
}

// -- Multi-process deployment (--role) --------------------------------------

struct PeerEntry {
  std::string host;
  uint16_t port = 0;
};

// Parses "NAME=HOST:PORT,NAME=HOST:PORT,...".
int ParsePeers(const std::string& text,
               std::map<std::string, PeerEntry>* peers) {
  if (text.empty()) {
    return Fail("--peers=NAME=HOST:PORT,... is required for --role");
  }
  for (const std::string& item : SplitString(text, ',')) {
    size_t eq = item.find('=');
    size_t colon = item.rfind(':');
    if (eq == std::string::npos || colon == std::string::npos || colon < eq) {
      return Fail("--peers entries must look like NAME=HOST:PORT, got '" +
                  item + "'");
    }
    std::string name = item.substr(0, eq);
    std::string host = item.substr(eq + 1, colon - eq - 1);
    int64_t port = 0;
    if (name.empty() || host.empty() ||
        !ParseInt64(item.substr(colon + 1), &port) || port < 1 ||
        port > 65535) {
      return Fail("--peers entries must look like NAME=HOST:PORT, got '" +
                  item + "'");
    }
    auto [it, inserted] = peers->emplace(
        name, PeerEntry{host, static_cast<uint16_t>(port)});
    (void)it;
    if (!inserted) return Fail("--peers lists '" + name + "' twice");
  }
  return 0;
}

// One process of a distributed protocol run: stands up a TcpNetwork
// endpoint hosting this process's party and runs that party's side of the
// schedule (see PartyRunner). The roster comes from --holders, addresses
// from --peers; all processes must be launched with the same roster,
// schema, and protocol flags.
int RunClusterRole(const Flags& flags) {
  const std::string role = flags.Get("role", "");
  if (role != "holder" && role != "third-party" && role != "coordinator") {
    return Fail("unknown --role '" + role +
                "' (want holder, third-party, or coordinator)");
  }
  const std::string tp_name = flags.Get("third-party", "TP");
  const std::string coord_name = flags.Get("coordinator", "COORD");

  std::vector<std::string> holder_order;
  for (const std::string& name : SplitString(flags.Get("holders", ""), ',')) {
    if (name.empty()) return Fail("--holders lists an empty holder name");
    for (const std::string& seen : holder_order) {
      // A duplicate would make every process hang out its receive
      // timeout waiting for the phantom second holder's messages.
      if (seen == name) return Fail("--holders lists '" + name + "' twice");
    }
    holder_order.push_back(name);
  }
  if (holder_order.size() < 2) {
    return Fail(
        "--holders must list at least two holder names in roster order");
  }
  std::map<std::string, PeerEntry> peers;
  if (int bad = ParsePeers(flags.Get("peers", ""), &peers)) return bad;

  // Capped at 7 days so even the coordinator's 10x window stays far from
  // overflowing the nanosecond deadline arithmetic in blocking receives.
  constexpr int64_t kMaxNetTimeoutMs = 7 * 24 * 60 * 60 * 1000LL;
  const int64_t timeout_ms = flags.GetInt("net-timeout-ms", 30000);
  if (timeout_ms < 1 || timeout_ms > kMaxNetTimeoutMs) {
    return Fail("--net-timeout-ms must be between 1 and " +
                std::to_string(kMaxNetTimeoutMs) + " (7 days)");
  }

  std::string party = flags.Get(
      "party", role == "third-party"
                   ? tp_name
                   : (role == "coordinator" ? coord_name : ""));
  if (party.empty()) {
    return Fail("--role=holder requires --party=<holder name>");
  }
  // For the singleton roles the party name is fixed by --third-party /
  // --coordinator; a diverging --party would register one name on the
  // network while the protocol objects speak as another, and every peer
  // would hang until its receive timeout.
  if (role == "third-party" && party != tp_name) {
    return Fail("--role=third-party is named by --third-party (" + tp_name +
                "); drop --party=" + party);
  }
  if (role == "coordinator" && party != coord_name) {
    return Fail("--role=coordinator is named by --coordinator (" +
                coord_name + "); drop --party=" + party);
  }

  ProtocolConfig config;
  if (int bad = ParseProtocolConfig(flags, &config)) return bad;
  ClusterRequest request;
  if (int bad = ParseClusterRequest(flags, &request)) return bad;
  if (!flags.value_error.empty()) return Fail(flags.value_error);
  if (flags.named.count("newick")) {
    // The dendrogram export is TP-side state; no process in a distributed
    // run both holds the merged matrix and serves the operator's shell.
    return Fail("--newick is not supported with --role (the dendrogram "
                "stays at the third party); run the in-process form");
  }

  auto own = peers.find(party);
  if (own == peers.end()) {
    return Fail("--peers does not list this process's party '" + party + "'");
  }

  TcpNetwork::Options options;
  options.listen_host = own->second.host;
  options.listen_port = own->second.port;
  options.connect_timeout = std::chrono::milliseconds(timeout_ms);
  auto network = TcpNetwork::Create(options);
  if (!network.ok()) return Fail(network.status().ToString());
  (*network)->set_receive_timeout(std::chrono::milliseconds(timeout_ms));
  Status status = (*network)->RegisterParty(party);
  if (!status.ok()) return Fail(status.ToString());
  for (const auto& [name, entry] : peers) {
    if (name == party) continue;
    status = (*network)->AddRemoteParty(name, entry.host, entry.port);
    if (!status.ok()) return Fail(status.ToString());
  }

  SessionPlan plan;
  plan.holder_order = holder_order;
  plan.third_party = tp_name;

  if (role == "third-party") {
    const std::string schema_path = flags.Get("schema", "");
    if (schema_path.empty() || !flags.positional.empty()) {
      return Fail(
          "--role=third-party takes no partition CSVs; pass the agreed "
          "schema via --schema=FILE.csv (values are ignored)");
    }
    auto schema_matrix = Csv::ReadFile(schema_path);
    if (!schema_matrix.ok()) {
      return Fail(schema_path + ": " + schema_matrix.status().ToString());
    }
    const int64_t tp_seed = flags.GetInt("entropy-seed", 1);
    if (!flags.value_error.empty()) return Fail(flags.value_error);
    ThirdParty tp(tp_name, network->get(), config, schema_matrix->schema(),
                  static_cast<uint64_t>(tp_seed));
    status = PartyRunner::RunThirdParty(&tp, plan, schema_matrix->schema());
    if (!status.ok()) return Fail(status.ToString());
    // Serve the requesting holder's order, then retire.
    status = tp.ServeClusterRequest(holder_order[0]);
    if (!status.ok()) return Fail(status.ToString());
    std::fprintf(stderr, "# %s: served %s; sent %llu wire bytes\n",
                 tp_name.c_str(), holder_order[0].c_str(),
                 static_cast<unsigned long long>(
                     (*network)->TotalSentBy(tp_name).wire_bytes));
    return 0;
  }

  if (role == "coordinator") {
    if (!flags.positional.empty()) {
      return Fail("--role=coordinator takes no partition CSVs");
    }
    // The requesting holder forwards the published outcome only after the
    // whole protocol completes, so this one receive must outlast every
    // per-message wait the other processes use: give it 10x the
    // per-message budget rather than making operators size one flag for
    // two different scales. (The flag's 7-day cap keeps 10x far inside
    // the deadline arithmetic's range.)
    (*network)->set_receive_timeout(std::chrono::milliseconds(timeout_ms * 10));
    // Null token: the one-shot coordinator has no cancellation source
    // beyond the transport timeout itself.
    auto msg = (*network)->Receive(party, holder_order[0],
                                   topics::kCoordinatorOutcome,
                                   /*cancel=*/nullptr);
    if (!msg.ok()) return Fail(msg.status().ToString());
    ByteReader reader(msg->payload);
    auto outcome = ClusteringOutcome::Deserialize(&reader);
    if (!outcome.ok()) return Fail(outcome.status().ToString());
    status = reader.ExpectEnd();
    if (!status.ok()) return Fail(status.ToString());
    PrintOutcome(*outcome);
    return 0;
  }

  size_t my_index = holder_order.size();
  for (size_t i = 0; i < holder_order.size(); ++i) {
    if (holder_order[i] == party) {
      my_index = i;
      break;
    }
  }
  if (my_index == holder_order.size()) {
    return Fail("--party '" + party + "' is not listed in --holders");
  }
  if (flags.positional.size() != 1) {
    return Fail("--role=holder takes exactly one partition CSV");
  }
  auto matrix = Csv::ReadFile(flags.positional[0]);
  if (!matrix.ok()) {
    return Fail(flags.positional[0] + ": " + matrix.status().ToString());
  }

  // Default entropy seeds match the in-process `cluster` command (TP = 1,
  // holder p = 100 + p), so a TCP deployment publishes the identical
  // outcome for identical partitions.
  const int64_t holder_seed =
      flags.GetInt("entropy-seed", 100 + static_cast<int64_t>(my_index));
  if (!flags.value_error.empty()) return Fail(flags.value_error);
  DataHolder holder(party, network->get(), config,
                    static_cast<uint64_t>(holder_seed));
  status = holder.SetData(std::move(*matrix));
  if (!status.ok()) return Fail(status.ToString());

  status = PartyRunner::RunHolder(&holder, plan, holder.data().schema());
  if (!status.ok()) return Fail(status.ToString());
  std::fprintf(stderr, "# %s: protocol done; sent %llu wire bytes\n",
               party.c_str(),
               static_cast<unsigned long long>(
                   (*network)->TotalSentBy(party).wire_bytes));

  if (my_index != 0) return 0;

  // The first roster holder issues the clustering order and publishes the
  // outcome — to the coordinator when one is deployed, to stdout
  // otherwise. Like the coordinator's wait, this receive spans the third
  // party's remaining rounds plus the clustering computation itself, so
  // it gets the same 10x budget rather than the per-message one.
  (*network)->set_receive_timeout(std::chrono::milliseconds(timeout_ms * 10));
  auto outcome = PartyRunner::RequestClustering(&holder, plan, request);
  if (!outcome.ok()) return Fail(outcome.status().ToString());
  if (peers.count(coord_name) != 0) {
    ByteWriter writer;
    outcome->Serialize(&writer);
    status = (*network)->Send(party, coord_name, topics::kCoordinatorOutcome,
                              writer.TakeBytes());
    if (!status.ok()) return Fail(status.ToString());
  } else {
    PrintOutcome(*outcome);
  }
  return 0;
}

// -- Daemon mode (serve / submit) --------------------------------------------

/// Control-plane job record carried on topics::kJobSubmit (always on the
/// transport's default session): kind ("job" or "shutdown"), the session
/// id the job runs under, the requested cluster count, and the job's
/// end-to-end deadline (0 = the daemon's own --deadline-ms, which itself
/// defaults to none). Protocol parameters beyond that are fixed at daemon
/// startup — every job a daemon serves uses the daemon's
/// --alphabet/--mode/... flags.
struct JobRecord {
  std::string kind;
  std::string session;
  uint64_t num_clusters = 0;
  uint64_t deadline_ms = 0;

  std::string Serialize() const {
    ByteWriter writer;
    writer.WriteBytes(kind);
    writer.WriteBytes(session);
    writer.WriteU64(num_clusters);
    writer.WriteU64(deadline_ms);
    return writer.TakeBytes();
  }

  static Result<JobRecord> Deserialize(const std::string& payload) {
    ByteReader reader(payload);
    JobRecord record;
    auto kind = reader.ReadBytes();
    if (!kind.ok()) return kind.status();
    record.kind = std::move(*kind);
    auto session = reader.ReadBytes();
    if (!session.ok()) return session.status();
    record.session = std::move(*session);
    auto clusters = reader.ReadU64();
    if (!clusters.ok()) return clusters.status();
    record.num_clusters = *clusters;
    auto deadline = reader.ReadU64();
    if (!deadline.ok()) return deadline.status();
    record.deadline_ms = *deadline;
    Status end = reader.ExpectEnd();
    if (!end.ok()) return end;
    return record;
  }
};

/// Control-plane per-job failure record carried on topics::kJobError (on
/// the failed job's session, so `submit`'s per-session collect loop picks
/// it up in place of the outcome it is waiting for): the typed StatusCode
/// plus message of the session's failure — admission rejection or a death
/// mid-protocol. Sent by the outcome-publishing daemon (roster holder 0),
/// best-effort: if it cannot be delivered, `submit`'s own --deadline-ms
/// still bounds the wait.
struct JobErrorRecord {
  uint64_t code = 0;  // static_cast<uint64_t>(StatusCode)
  std::string message;

  std::string Serialize() const {
    ByteWriter writer;
    writer.WriteU64(code);
    writer.WriteBytes(message);
    return writer.TakeBytes();
  }

  static Result<JobErrorRecord> Deserialize(const std::string& payload) {
    ByteReader reader(payload);
    JobErrorRecord record;
    auto code = reader.ReadU64();
    if (!code.ok()) return code.status();
    record.code = *code;
    auto message = reader.ReadBytes();
    if (!message.ok()) return message.status();
    record.message = std::move(*message);
    Status end = reader.ExpectEnd();
    if (!end.ok()) return end;
    return record;
  }

  /// The record as a Status (clamping unknown codes to kInternal so a
  /// forged/corrupt code cannot masquerade as OK).
  Status ToStatus() const {
    StatusCode status_code = static_cast<StatusCode>(code);
    if (code == 0 || code > static_cast<uint64_t>(StatusCode::kUnavailable)) {
      status_code = StatusCode::kInternal;
    }
    return Status(status_code, message);
  }
};

/// Stands up this process's TCP endpoint at its --peers address, registers
/// its party, and wires every other peer as a remote.
Result<std::unique_ptr<TcpNetwork>> SetUpEndpoint(
    const std::string& party, const std::map<std::string, PeerEntry>& peers,
    int64_t timeout_ms) {
  auto own = peers.find(party);
  if (own == peers.end()) {
    return Status::InvalidArgument("--peers does not list this process's "
                                   "party '" + party + "'");
  }
  TcpNetwork::Options options;
  options.listen_host = own->second.host;
  options.listen_port = own->second.port;
  options.connect_timeout = std::chrono::milliseconds(timeout_ms);
  auto network = TcpNetwork::Create(options);
  if (!network.ok()) return network.status();
  (*network)->set_receive_timeout(std::chrono::milliseconds(timeout_ms));
  Status status = (*network)->RegisterParty(party);
  if (!status.ok()) return status;
  for (const auto& [name, entry] : peers) {
    if (name == party) continue;
    status = (*network)->AddRemoteParty(name, entry.host, entry.port);
    if (!status.ok()) return status;
  }
  return std::move(network).TakeValue();
}

// Parses --holders; >= 2 distinct names required (same contract as the
// --role deployment).
int ParseHolderOrder(const Flags& flags,
                     std::vector<std::string>* holder_order) {
  for (const std::string& name : SplitString(flags.Get("holders", ""), ',')) {
    if (name.empty()) return Fail("--holders lists an empty holder name");
    for (const std::string& seen : *holder_order) {
      if (seen == name) return Fail("--holders lists '" + name + "' twice");
    }
    holder_order->push_back(name);
  }
  if (holder_order->size() < 2) {
    return Fail(
        "--holders must list at least two holder names in roster order");
  }
  return 0;
}

// `serve` — a resident protocol party. Loops on control-plane job
// submissions from the coordinator and runs each job as its own logical
// session, concurrently, over this one endpoint: every in-flight job's
// frames share the same authenticated connections, demultiplexed by
// session id. A "shutdown" record drains the in-flight sessions and
// exits.
int RunServe(const Flags& flags) {
  if (int bad = CheckFlagNames(
          flags, {"role", "party", "holders", "peers", "third-party",
                  "coordinator", "net-timeout-ms", "entropy-seed", "schema",
                  "alphabet", "mode", "threads", "schedule", "tile-size",
                  "max-inflight", "deadline-ms", "drain-ms"})) {
    return bad;
  }
  const std::string role = flags.Get("role", "");
  if (role != "holder" && role != "third-party") {
    return Fail("serve needs --role=holder or --role=third-party (the "
                "coordinator side is `submit`)");
  }
  const std::string tp_name = flags.Get("third-party", "TP");
  const std::string coord_name = flags.Get("coordinator", "COORD");

  std::vector<std::string> holder_order;
  if (int bad = ParseHolderOrder(flags, &holder_order)) return bad;
  std::map<std::string, PeerEntry> peers;
  if (int bad = ParsePeers(flags.Get("peers", ""), &peers)) return bad;

  constexpr int64_t kMaxNetTimeoutMs = 7 * 24 * 60 * 60 * 1000LL;
  const int64_t timeout_ms = flags.GetInt("net-timeout-ms", 30000);
  if (timeout_ms < 1 || timeout_ms > kMaxNetTimeoutMs) {
    return Fail("--net-timeout-ms must be between 1 and " +
                std::to_string(kMaxNetTimeoutMs) + " (7 days)");
  }

  // Admission control: at most this many sessions in flight at once; an
  // over-budget job is rejected with a typed kResourceExhausted record
  // instead of queueing unboundedly. 0 = unbounded (the pre-hardening
  // behavior).
  const int64_t max_inflight = flags.GetInt("max-inflight", 0);
  if (max_inflight < 0) {
    return Fail("--max-inflight must be non-negative (0 = unbounded)");
  }
  // Default end-to-end deadline armed on each session's cancel token; a
  // job record carrying its own deadline overrides it. 0 = none.
  const int64_t serve_deadline_ms = flags.GetInt("deadline-ms", 0);
  if (serve_deadline_ms < 0 || serve_deadline_ms > kMaxNetTimeoutMs) {
    return Fail("--deadline-ms must be between 0 (no deadline) and " +
                std::to_string(kMaxNetTimeoutMs));
  }
  // How long a shutdown drains in-flight sessions before cancelling the
  // stragglers. 0 = wait indefinitely.
  const int64_t drain_ms = flags.GetInt("drain-ms", 0);
  if (drain_ms < 0 || drain_ms > kMaxNetTimeoutMs) {
    return Fail("--drain-ms must be between 0 (wait indefinitely) and " +
                std::to_string(kMaxNetTimeoutMs));
  }

  const std::string party =
      flags.Get("party", role == "third-party" ? tp_name : "");
  if (party.empty()) {
    return Fail("--role=holder requires --party=<holder name>");
  }
  if (role == "third-party" && party != tp_name) {
    return Fail("--role=third-party is named by --third-party (" + tp_name +
                "); drop --party=" + party);
  }

  ProtocolConfig config;
  if (int bad = ParseProtocolConfig(flags, &config)) return bad;

  // The daemon's data (one partition CSV) or agreed schema is fixed at
  // startup; every job clusters it.
  size_t my_index = holder_order.size();
  DataMatrix matrix;
  if (role == "holder") {
    for (size_t i = 0; i < holder_order.size(); ++i) {
      if (holder_order[i] == party) my_index = i;
    }
    if (my_index == holder_order.size()) {
      return Fail("--party '" + party + "' is not listed in --holders");
    }
    if (flags.positional.size() != 1) {
      return Fail("serve --role=holder takes exactly one partition CSV");
    }
    auto loaded = Csv::ReadFile(flags.positional[0]);
    if (!loaded.ok()) {
      return Fail(flags.positional[0] + ": " + loaded.status().ToString());
    }
    matrix = std::move(loaded).TakeValue();
  } else {
    const std::string schema_path = flags.Get("schema", "");
    if (schema_path.empty() || !flags.positional.empty()) {
      return Fail(
          "serve --role=third-party takes no partition CSVs; pass the "
          "agreed schema via --schema=FILE.csv (values are ignored)");
    }
    auto loaded = Csv::ReadFile(schema_path);
    if (!loaded.ok()) {
      return Fail(schema_path + ": " + loaded.status().ToString());
    }
    matrix = std::move(loaded).TakeValue();
  }
  const Schema schema = matrix.schema();

  // Entropy defaults match the in-process `cluster` command (TP = 1,
  // holder p = 100 + p): a daemon fleet publishes the identical outcome
  // for identical partitions, job after job.
  const int64_t default_seed =
      role == "third-party" ? 1 : 100 + static_cast<int64_t>(my_index);
  const uint64_t entropy_seed =
      static_cast<uint64_t>(flags.GetInt("entropy-seed", default_seed));
  if (!flags.value_error.empty()) return Fail(flags.value_error);

  auto network = SetUpEndpoint(party, peers, timeout_ms);
  if (!network.ok()) return Fail(network.status().ToString());

  SessionPlan plan;
  plan.holder_order = holder_order;
  plan.third_party = tp_name;

  SessionRegistry registry(network->get());
  // The daemon that publishes outcomes (roster holder 0) is also the one
  // that tells the submitter about a job's typed failure — on the failed
  // job's own session, so the submitter's per-session collect loop picks
  // it up in place of the outcome that will never come.
  const bool publishes_outcome = role == "holder" && my_index == 0;
  const bool has_coordinator = peers.count(coord_name) != 0;
  std::fprintf(stderr, "# %s: serving (role %s, listening on %u)\n",
               party.c_str(), role.c_str(), (*network)->listen_port());
  size_t served = 0;
  size_t rejected = 0;
  for (;;) {
    // The daemon's main loop is the one deliberately un-cancellable
    // blocking receive in the tree (null token): shutdown arrives as a
    // control record, not a cancellation.
    auto msg = (*network)->Receive(party, coord_name, topics::kJobSubmit,
                                   /*cancel=*/nullptr);
    if (!msg.ok()) {
      // An idle window with no submissions (kUnavailable after the
      // receive timeout; kNotFound from a zero-timeout probe) is not an
      // error for a daemon.
      if (msg.status().code() == StatusCode::kNotFound ||
          msg.status().code() == StatusCode::kUnavailable) {
        continue;
      }
      return Fail(msg.status().ToString());
    }
    auto job = JobRecord::Deserialize(msg->payload);
    if (!job.ok()) return Fail("bad job record: " + job.status().ToString());
    if (job->kind == "shutdown") break;
    if (job->kind != "job") {
      return Fail("unknown control record kind '" + job->kind + "'");
    }

    // Admission control: every daemon enforces its own bound, and a
    // rejection is a logged, typed event — never a dead daemon.
    if (max_inflight > 0 &&
        registry.ActiveCount() >= static_cast<size_t>(max_inflight)) {
      Status refusal = Status::ResourceExhausted(
          "daemon '" + party + "' is at --max-inflight=" +
          std::to_string(max_inflight) + " sessions; job '" + job->session +
          "' rejected");
      std::fprintf(stderr, "# %s: %s\n", party.c_str(),
                   refusal.ToString().c_str());
      ++rejected;
      if (publishes_outcome && has_coordinator) {
        JobErrorRecord record{static_cast<uint64_t>(refusal.code()),
                              refusal.message()};
        // Best-effort: if the notice cannot be delivered, the submitter's
        // own --deadline-ms still bounds its wait.
        (void)(*network)->SendOn(job->session, party, coord_name,
                                 topics::kJobError, record.Serialize());
      }
      // The refused session never runs here: retire it, so its peers'
      // frames are dropped on arrival instead of queuing forever.
      (*network)->PurgeSession(job->session);
      continue;
    }

    // The job's own deadline wins; the daemon's --deadline-ms is the
    // fleet-wide default for submitters that set none.
    const uint64_t deadline_ms =
        job->deadline_ms != 0 ? job->deadline_ms
                              : static_cast<uint64_t>(serve_deadline_ms);
    ClusterRequest request;
    request.num_clusters = job->num_clusters;

    // Everything the session body touches is captured by value: the loop
    // (and any number of sibling sessions) keeps running while it works.
    SessionRegistry::SessionBody body;
    if (role == "third-party") {
      body = [tp_name, config, schema, entropy_seed, plan, deadline_ms](
                 Network* snet, CancelToken* cancel) {
        cancel->ArmDeadline(deadline_ms);
        ThirdParty tp(tp_name, snet, config, schema, entropy_seed);
        tp.BindCancelToken(cancel);
        Status status = PartyRunner::RunThirdParty(&tp, plan, schema);
        if (!status.ok()) return status;
        return tp.ServeClusterRequest(plan.holder_order[0]);
      };
    } else {
      const bool requests_clustering = my_index == 0;
      body = [party, coord_name, config, schema, entropy_seed, plan, matrix,
              request, requests_clustering, has_coordinator, deadline_ms](
                 Network* snet, CancelToken* cancel) {
        cancel->ArmDeadline(deadline_ms);
        Status status = [&]() -> Status {
          DataHolder holder(party, snet, config, entropy_seed);
          holder.BindCancelToken(cancel);
          PPC_RETURN_IF_ERROR(holder.SetData(matrix));
          PPC_RETURN_IF_ERROR(PartyRunner::RunHolder(&holder, plan, schema));
          if (!requests_clustering) return Status::OK();
          auto outcome =
              PartyRunner::RequestClustering(&holder, plan, request);
          if (!outcome.ok()) return outcome.status();
          ByteWriter writer;
          outcome->Serialize(&writer);
          // Session-scoped: the submitter collects each job's outcome off
          // that job's own session.
          return snet->Send(party, coord_name, topics::kCoordinatorOutcome,
                            writer.TakeBytes());
        }();
        if (!status.ok() && requests_clustering && has_coordinator) {
          JobErrorRecord record{static_cast<uint64_t>(status.code()),
                                status.message()};
          // Best-effort typed death notice; voided because the session is
          // failing with `status` regardless of whether it lands.
          (void)snet->Send(party, coord_name, topics::kJobError,
                           record.Serialize());
        }
        return status;
      };
    }
    Status started = registry.StartSession(job->session, std::move(body));
    if (!started.ok()) return Fail(started.ToString());
    ++served;
  }

  // Graceful drain: the loop has exited, so nothing new is admitted;
  // in-flight sessions get --drain-ms to finish before a watchdog cancels
  // the stragglers — shutdown cannot hang on a wedged peer.
  Mutex drain_mutex;
  CondVar drain_cv;
  bool drained = false;
  std::thread watchdog;
  if (drain_ms > 0) {
    const auto drain_deadline = std::chrono::steady_clock::now() +
                                std::chrono::milliseconds(drain_ms);
    watchdog = std::thread([&registry, &drain_mutex, &drain_cv, &drained,
                            &party, drain_ms, drain_deadline] {
      MutexLock lock(drain_mutex);
      while (!drained) {
        if (drain_cv.WaitUntil(drain_mutex, drain_deadline) ==
                std::cv_status::timeout &&
            !drained) {
          registry.CancelAll(Status::DeadlineExceeded(
              "daemon '" + party + "' shutting down: drain deadline (" +
              std::to_string(drain_ms) + " ms) expired"));
          return;
        }
      }
    });
  }
  Status all = registry.WaitAll();
  if (drain_ms > 0) {
    {
      MutexLock lock(drain_mutex);
      drained = true;
    }
    drain_cv.NotifyAll();
    watchdog.join();
  }
  // Per-session failure isolation: a session that died (dead peer,
  // deadline, cancellation) is logged, and its typed record already went
  // to the submitter; the daemon itself shuts down cleanly.
  if (!all.ok()) {
    std::fprintf(stderr, "# %s: session failure (isolated): %s\n",
                 party.c_str(), all.ToString().c_str());
  }
  std::fprintf(stderr, "# %s: served %zu sessions; sent %llu wire bytes\n",
               party.c_str(), served,
               static_cast<unsigned long long>(
                   (*network)->TotalSentBy(party).wire_bytes));
  if (rejected > 0) {
    std::fprintf(stderr, "# %s: rejected %zu jobs (--max-inflight=%lld)\n",
                 party.c_str(), rejected,
                 static_cast<long long>(max_inflight));
  }
  return 0;
}

// `submit` — the coordinator side of daemon mode: fires N jobs at every
// serve daemon (all N are in flight at once), then collects and prints
// each session's published outcome in submission order, and finally sends
// the shutdown record.
int RunSubmit(const Flags& flags) {
  if (int bad = CheckFlagNames(
          flags, {"holders", "peers", "third-party", "coordinator", "jobs",
                  "clusters", "session-prefix", "net-timeout-ms", "shutdown",
                  "deadline-ms"})) {
    return bad;
  }
  if (!flags.positional.empty()) {
    return Fail("submit takes no positional arguments");
  }
  const std::string tp_name = flags.Get("third-party", "TP");
  const std::string coord_name = flags.Get("coordinator", "COORD");
  std::vector<std::string> holder_order;
  if (int bad = ParseHolderOrder(flags, &holder_order)) return bad;
  std::map<std::string, PeerEntry> peers;
  if (int bad = ParsePeers(flags.Get("peers", ""), &peers)) return bad;

  constexpr int64_t kMaxNetTimeoutMs = 7 * 24 * 60 * 60 * 1000LL;
  const int64_t timeout_ms = flags.GetInt("net-timeout-ms", 30000);
  if (timeout_ms < 1 || timeout_ms > kMaxNetTimeoutMs / 10) {
    return Fail("--net-timeout-ms must be between 1 and " +
                std::to_string(kMaxNetTimeoutMs / 10));
  }
  const int64_t jobs = flags.GetInt("jobs", 1);
  if (jobs < 1) return Fail("--jobs must be positive");
  const int64_t clusters = flags.GetInt("clusters", 3);
  if (clusters < 1) return Fail("--clusters must be positive");
  const std::string prefix = flags.Get("session-prefix", "job-");
  const std::string shutdown = flags.Get("shutdown", "true");
  if (shutdown != "true" && shutdown != "false") {
    return Fail("--shutdown expects true or false");
  }
  // End-to-end per-job deadline, shipped in each job record (so the
  // daemons arm it on the session's cancel token) and armed locally on
  // each outcome wait: a daemon that dies mid-job yields a typed error
  // line here within the deadline instead of a submit that hangs forever.
  // 0 = no deadline (the transport's 10x receive budget still applies).
  const int64_t deadline_ms = flags.GetInt("deadline-ms", 0);
  if (deadline_ms < 0 || deadline_ms > kMaxNetTimeoutMs) {
    return Fail("--deadline-ms must be between 0 (no deadline) and " +
                std::to_string(kMaxNetTimeoutMs));
  }
  if (!flags.value_error.empty()) return Fail(flags.value_error);

  auto network = SetUpEndpoint(coord_name, peers, timeout_ms);
  if (!network.ok()) return Fail(network.status().ToString());

  std::vector<std::string> participants;
  participants.push_back(tp_name);
  for (const std::string& holder : holder_order) {
    participants.push_back(holder);
  }

  // Fire every job before collecting anything: all N sessions execute
  // concurrently inside the daemons.
  std::vector<std::string> sessions;
  for (int64_t j = 0; j < jobs; ++j) {
    JobRecord job{"job", prefix + std::to_string(j + 1),
                  static_cast<uint64_t>(clusters),
                  static_cast<uint64_t>(deadline_ms)};
    sessions.push_back(job.session);
    const std::string payload = job.Serialize();
    for (const std::string& participant : participants) {
      Status sent = (*network)->Send(coord_name, participant,
                                     topics::kJobSubmit, payload);
      if (!sent.ok()) return Fail(sent.ToString());
    }
  }

  // Each outcome wait spans a whole protocol run plus the clustering
  // computation, so it gets the coordinator's 10x budget — cut short by
  // --deadline-ms when one is set. The expected topic is left open
  // because a session resolves to exactly one of two control records:
  // the outcome (ctl.outcome) or a typed failure record (ctl.error). A
  // job that fails — daemon died, rejected by admission control, or
  // nothing arrived before the deadline — prints a typed error line and
  // the loop moves on to the next session; it never hangs the submitter
  // or abandons the remaining outcomes.
  (*network)->set_receive_timeout(std::chrono::milliseconds(timeout_ms * 10));
  size_t failed = 0;
  for (const std::string& session : sessions) {
    CancelToken token;
    token.ArmDeadline(static_cast<uint64_t>(deadline_ms));
    auto msg = (*network)->ReceiveOn(session, coord_name, holder_order[0],
                                     /*expected_topic=*/"", &token);
    if (!msg.ok()) {
      ++failed;
      std::fprintf(stderr, "error: session '%s': %s\n", session.c_str(),
                   msg.status().ToString().c_str());
      continue;
    }
    if (msg->topic == topics::kJobError) {
      auto record = JobErrorRecord::Deserialize(msg->payload);
      if (!record.ok()) return Fail(record.status().ToString());
      ++failed;
      std::fprintf(stderr, "error: session '%s': %s\n", session.c_str(),
                   record->ToStatus().ToString().c_str());
      continue;
    }
    if (msg->topic != topics::kCoordinatorOutcome) {
      return Fail("session '" + session + "': unexpected control topic '" +
                  msg->topic + "'");
    }
    ByteReader reader(msg->payload);
    auto outcome = ClusteringOutcome::Deserialize(&reader);
    if (!outcome.ok()) return Fail(outcome.status().ToString());
    Status end = reader.ExpectEnd();
    if (!end.ok()) return Fail(end.ToString());
    std::printf("# session %s\n", session.c_str());
    PrintOutcome(*outcome);
  }

  if (shutdown == "true") {
    (*network)->set_receive_timeout(std::chrono::milliseconds(timeout_ms));
    const std::string payload = JobRecord{"shutdown", "", 0, 0}.Serialize();
    for (const std::string& participant : participants) {
      Status sent = (*network)->Send(coord_name, participant,
                                     topics::kJobSubmit, payload);
      // A daemon that already died must not block the shutdown sweep (or
      // mask the per-job errors): the survivors still get their record.
      if (!sent.ok()) {
        std::fprintf(stderr, "error: shutdown record to '%s': %s\n",
                     participant.c_str(), sent.ToString().c_str());
      }
    }
  }
  if (failed > 0) {
    return Fail(std::to_string(failed) + " of " +
                std::to_string(sessions.size()) +
                " jobs failed (typed per-job errors above)");
  }
  return 0;
}

// Loads the partition CSVs named by the positional arguments (>= 2
// required) and checks they agree on one schema.
int LoadPartitions(const Flags& flags, const char* command,
                   std::vector<DataMatrix>* parts) {
  if (flags.positional.size() < 2) {
    return Fail(std::string(command) +
                " needs at least two partition CSVs (k >= 2)");
  }
  for (const std::string& path : flags.positional) {
    auto matrix = Csv::ReadFile(path);
    if (!matrix.ok()) return Fail(path + ": " + matrix.status().ToString());
    parts->push_back(std::move(matrix).TakeValue());
  }
  const Schema& schema = (*parts)[0].schema();
  for (const DataMatrix& part : *parts) {
    if (!(part.schema() == schema)) {
      return Fail("partition schemas disagree");
    }
  }
  return 0;
}

// `analyze` — run the protocol over the partitions and print the paper's
// communication-cost table: per phase, the bytes the schedule graph's
// closed-form model predicts next to the bytes the channel taps measured.
int RunAnalyze(const Flags& flags) {
  if (int bad = CheckFlagNames(flags,
                               {"alphabet", "mode", "threads", "schedule",
                                "tile-size"})) {
    return bad;
  }
  std::vector<DataMatrix> parts;
  if (int bad = LoadPartitions(flags, "analyze", &parts)) return bad;
  ProtocolConfig config;
  if (int bad = ParseProtocolConfig(flags, &config)) return bad;
  if (!flags.value_error.empty()) return Fail(flags.value_error);
  const Schema& schema = parts[0].schema();

  // The identical graph every driver of this run builds (the construction
  // is deterministic in plan + schema), used here for the model and the
  // topic -> phase attribution of tapped frames.
  SessionPlan plan;
  for (size_t p = 0; p < parts.size(); ++p) {
    plan.holder_order.push_back(std::string(1, static_cast<char>('A' + p)));
  }
  Schedule::Options schedule_options;
  schedule_options.granularity = config.schedule_granularity;
  schedule_options.tile_size = config.tile_size;
  schedule_options.masking = config.masking_mode;
  if (config.tile_size > 0) {
    // Tile boundaries are part of the graph; analyze owns every partition,
    // so the counts a distributed process would read off the roster are
    // simply the partition sizes.
    for (const DataMatrix& part : parts) {
      schedule_options.holder_objects.push_back(part.NumRows());
    }
  }
  auto schedule = Schedule::Build(plan, schema, schedule_options);
  if (!schedule.ok()) return Fail(schedule.status().ToString());

  std::map<std::string, HolderTrafficProfile> profiles;
  for (size_t p = 0; p < parts.size(); ++p) {
    HolderTrafficProfile& profile = profiles[plan.holder_order[p]];
    profile.objects = parts[p].NumRows();
    for (size_t c = 0; c < schema.size(); ++c) {
      if (schema.attribute(c).type != AttributeType::kAlphanumeric) continue;
      auto strings = parts[p].StringColumn(c);
      if (!strings.ok()) return Fail(strings.status().ToString());
      std::vector<uint64_t>& lengths = profile.string_lengths[c];
      for (const std::string& s : *strings) lengths.push_back(s.size());
    }
  }
  auto predicted =
      ScheduleCommModel::PredictPhasePayloads(*schedule, config, profiles);
  if (!predicted.ok()) return Fail(predicted.status().ToString());

  InMemoryNetwork network;
  ScheduleTrafficAudit audit;
  audit.Attach(&network, *schedule);
  ThirdParty tp("TP", &network, config, schema, 1);
  ClusteringSession session(&network, config, schema);
  Status status = session.SetThirdParty(&tp);
  if (!status.ok()) return Fail(status.ToString());
  std::vector<std::unique_ptr<DataHolder>> holders;
  for (size_t p = 0; p < parts.size(); ++p) {
    holders.push_back(std::make_unique<DataHolder>(
        plan.holder_order[p], &network, config, 100 + p));
    status = holders.back()->SetData(parts[p]);
    if (!status.ok()) return Fail(status.ToString());
    status = session.AddDataHolder(holders.back().get());
    if (!status.ok()) return Fail(status.ToString());
  }
  Stopwatch stopwatch;
  status = session.Run();
  if (!status.ok()) return Fail(status.ToString());

  static constexpr const char* kPhaseNames[] = {
      "?",
      "hello/roster",
      "key agreement",
      "categorical key",
      "local matrices (Fig. 12)",
      "comparison rounds (Sec. 4)",
      "normalization",
  };
  std::printf("# schedule: %s, %zu steps, protocol %.1f ms\n",
              ScheduleGranularityToString(config.schedule_granularity),
              schedule->steps().size(), stopwatch.ElapsedMillis());
  if (config.tile_size > 0) {
    std::printf("# tile-size: %zu rows per phase-4/5 tile\n",
                config.tile_size);
  }
  std::printf("# cpu: aes=%s sha=%s rows=%s\n",
              Aes128::AesniSupported() ? "aes-ni" : "software",
              Sha256::ShaNiSupported() ? "sha-ni" : "software",
              DistanceKernels::KernelToString(DistanceKernels::Active()));
  std::printf("# %-29s %8s %12s %12s %12s\n", "phase", "msgs", "wire B",
              "payload B", "model B");
  auto totals = audit.PhaseTotals();
  for (const auto& [phase, traffic] : totals) {
    std::printf("  %d %-27s %8llu %12llu %12llu ", phase, kPhaseNames[phase],
                static_cast<unsigned long long>(traffic.messages),
                static_cast<unsigned long long>(traffic.wire_bytes),
                static_cast<unsigned long long>(traffic.payload_bytes));
    auto model = predicted->find(phase);
    if (model == predicted->end()) {
      std::printf("%12s\n", "-");
    } else if (model->second == traffic.payload_bytes) {
      std::printf("%11llu=\n",
                  static_cast<unsigned long long>(model->second));
    } else {
      std::printf("%11llu!\n",
                  static_cast<unsigned long long>(model->second));
    }
  }
  // The model must price phases 4 and 5 to the byte — anything else is a
  // drifted serializer or a wrong formula, worth a loud exit code.
  for (const auto& [phase, bytes] : *predicted) {
    auto measured = totals.find(phase);
    if (measured == totals.end() || measured->second.payload_bytes != bytes) {
      return Fail("model mismatch in phase " + std::to_string(phase) +
                  ": predicted " + std::to_string(bytes) + " payload bytes" +
                  (measured == totals.end()
                       ? std::string(", measured none")
                       : ", measured " +
                             std::to_string(measured->second.payload_bytes)));
    }
  }
  std::printf("# total: %llu wire bytes, %llu messages\n",
              static_cast<unsigned long long>(
                  network.GrandTotal().wire_bytes),
              static_cast<unsigned long long>(
                  network.GrandTotal().messages));
  return 0;
}

int RunCluster(const Flags& flags) {
  if (int bad = CheckFlagNames(
          flags, {"clusters", "linkage", "algorithm", "eps", "minpts",
                  "alphabet", "weights", "mode", "threads", "newick",
                  "schedule", "tile-size", "role", "party", "peers", "holders",
                  "third-party", "coordinator", "net-timeout-ms",
                  "entropy-seed", "schema"})) {
    return bad;
  }
  if (flags.named.count("role")) return RunClusterRole(flags);
  for (const char* role_only :
       {"party", "peers", "holders", "third-party", "coordinator",
        "net-timeout-ms", "entropy-seed", "schema"}) {
    if (flags.named.count(role_only)) {
      return Fail(std::string("--") + role_only + " requires --role");
    }
  }
  std::vector<DataMatrix> parts;
  if (int bad = LoadPartitions(flags, "cluster", &parts)) return bad;
  const Schema& schema = parts[0].schema();

  ProtocolConfig config;
  if (int bad = ParseProtocolConfig(flags, &config)) return bad;

  InMemoryNetwork network;
  ThirdParty tp("TP", &network, config, schema, 1);
  ClusteringSession session(&network, config, schema);
  Status status = session.SetThirdParty(&tp);
  if (!status.ok()) return Fail(status.ToString());

  std::vector<std::unique_ptr<DataHolder>> holders;
  for (size_t p = 0; p < parts.size(); ++p) {
    std::string name(1, static_cast<char>('A' + p));
    holders.push_back(
        std::make_unique<DataHolder>(name, &network, config, 100 + p));
    status = holders.back()->SetData(parts[p]);
    if (!status.ok()) return Fail(status.ToString());
    status = session.AddDataHolder(holders.back().get());
    if (!status.ok()) return Fail(status.ToString());
  }

  ClusterRequest request;
  if (int bad = ParseClusterRequest(flags, &request)) return bad;
  if (!flags.value_error.empty()) return Fail(flags.value_error);

  Stopwatch stopwatch;
  status = session.Run();
  if (!status.ok()) return Fail(status.ToString());
  std::printf("# protocol: %.1f ms, %llu wire bytes, %llu messages\n",
              stopwatch.ElapsedMillis(),
              static_cast<unsigned long long>(
                  network.GrandTotal().wire_bytes),
              static_cast<unsigned long long>(
                  network.GrandTotal().messages));

  auto outcome = session.RequestClustering("A", request);
  if (!outcome.ok()) return Fail(outcome.status().ToString());
  PrintOutcome(*outcome);

  const std::string newick_path = flags.Get("newick", "");
  if (!newick_path.empty()) {
    // TP-side export (never published to holders: branch lengths are
    // distances). Rebuild the dendrogram from the TP's merged matrix.
    auto merged = tp.MergedMatrix(request.weights);
    if (!merged.ok()) return Fail(merged.status().ToString());
    auto dendrogram = Agglomerative::Run(*merged, request.linkage);
    if (!dendrogram.ok()) return Fail(dendrogram.status().ToString());
    std::vector<std::string> names;
    size_t global = 0;
    for (size_t p = 0; p < parts.size(); ++p) {
      for (size_t i = 0; i < parts[p].NumRows(); ++i, ++global) {
        names.push_back(std::string(1, static_cast<char>('A' + p)) +
                        std::to_string(i));
      }
    }
    auto newick = dendrogram->ToNewick(names);
    if (!newick.ok()) return Fail(newick.status().ToString());
    std::ofstream out(newick_path);
    out << *newick << "\n";
    std::printf("# wrote TP-side dendrogram to %s\n", newick_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace ppc

int main(int argc, char** argv) {
  if (argc < 2) return ppc::Usage();
  std::string command = argv[1];
  if (command == "--help" || command == "-h" || command == "help") {
    return ppc::Help();
  }
  ppc::Flags flags = ppc::ParseFlags(argc, argv);
  bool wants_help = flags.named.count("help") || flags.named.count("h");
  for (const std::string& arg : flags.positional) {
    if (arg == "-h") wants_help = true;
  }
  if (wants_help) return ppc::Help();
  if (command == "version" || command == "--version") {
    return ppc::RunVersion();
  }
  if (command == "generate") return ppc::RunGenerate(flags);
  if (command == "cluster") return ppc::RunCluster(flags);
  if (command == "analyze") return ppc::RunAnalyze(flags);
  if (command == "serve") return ppc::RunServe(flags);
  if (command == "submit") return ppc::RunSubmit(flags);
  return ppc::Usage();
}
