#include "data/generators.h"

#include "rng/distributions.h"

namespace ppc {

namespace {

/// Assigns each of `n` objects to a cluster proportionally to `weights`,
/// then shuffles so parties receive interleaved cluster members.
std::vector<int> AssignClusters(size_t n, const std::vector<double>& weights,
                                Prng* prng) {
  std::vector<int> labels;
  labels.reserve(n);
  double total = 0.0;
  for (double w : weights) total += w;
  size_t assigned = 0;
  for (size_t c = 0; c < weights.size(); ++c) {
    size_t count = (c + 1 == weights.size())
                       ? n - assigned
                       : static_cast<size_t>(n * weights[c] / total);
    for (size_t i = 0; i < count && assigned < n; ++i, ++assigned) {
      labels.push_back(static_cast<int>(c));
    }
  }
  while (labels.size() < n) labels.push_back(0);
  Distributions::Shuffle(prng, &labels);
  return labels;
}

}  // namespace

Result<LabeledDataset> Generators::GaussianMixture(
    size_t n, const std::vector<GaussianCluster>& clusters, Prng* prng) {
  if (clusters.empty()) {
    return Status::InvalidArgument("need at least one cluster spec");
  }
  size_t dims = clusters[0].center.size();
  if (dims == 0) {
    return Status::InvalidArgument("cluster centers must have dimension >= 1");
  }
  for (const GaussianCluster& c : clusters) {
    if (c.center.size() != dims) {
      return Status::InvalidArgument("cluster centers disagree on dimension");
    }
  }

  std::vector<AttributeSpec> specs;
  for (size_t d = 0; d < dims; ++d) {
    specs.push_back({"dim" + std::to_string(d), AttributeType::kReal});
  }
  PPC_ASSIGN_OR_RETURN(Schema schema, Schema::Create(std::move(specs)));

  std::vector<double> weights;
  for (const GaussianCluster& c : clusters) weights.push_back(c.weight);
  std::vector<int> labels = AssignClusters(n, weights, prng);

  LabeledDataset out{DataMatrix(schema), labels};
  for (size_t i = 0; i < n; ++i) {
    const GaussianCluster& cluster = clusters[labels[i]];
    std::vector<Value> row;
    row.reserve(dims);
    for (size_t d = 0; d < dims; ++d) {
      row.push_back(Value::Real(
          Distributions::Gaussian(prng, cluster.center[d], cluster.stddev)));
    }
    PPC_RETURN_IF_ERROR(out.data.AppendRow(std::move(row)));
  }
  return out;
}

std::string Generators::RandomString(size_t length, const Alphabet& alphabet,
                                     Prng* prng) {
  std::string out;
  out.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    out.push_back(alphabet.SymbolAt(
        static_cast<size_t>(prng->NextBounded(alphabet.size()))));
  }
  return out;
}

std::string Generators::Mutate(const std::string& sequence,
                               const Alphabet& alphabet,
                               double substitution_rate, double indel_rate,
                               Prng* prng) {
  std::string out;
  out.reserve(sequence.size() + 4);
  for (char c : sequence) {
    double roll = prng->NextUnitDouble();
    if (roll < indel_rate / 2) {
      continue;  // Deletion.
    }
    if (roll < indel_rate) {
      // Insertion of a random symbol before the current one.
      out.push_back(alphabet.SymbolAt(
          static_cast<size_t>(prng->NextBounded(alphabet.size()))));
    }
    if (prng->NextUnitDouble() < substitution_rate) {
      out.push_back(alphabet.SymbolAt(
          static_cast<size_t>(prng->NextBounded(alphabet.size()))));
    } else {
      out.push_back(c);
    }
  }
  if (out.empty()) out.push_back(alphabet.SymbolAt(0));
  return out;
}

Result<LabeledDataset> Generators::DnaSequences(size_t n,
                                                const DnaOptions& options,
                                                Prng* prng) {
  if (options.num_clusters == 0 || options.ancestor_length == 0) {
    return Status::InvalidArgument("num_clusters and ancestor_length must be "
                                   "positive");
  }
  Alphabet dna = Alphabet::Dna();
  std::vector<std::string> ancestors;
  ancestors.reserve(options.num_clusters);
  for (size_t c = 0; c < options.num_clusters; ++c) {
    ancestors.push_back(RandomString(options.ancestor_length, dna, prng));
  }

  PPC_ASSIGN_OR_RETURN(Schema schema,
                       Schema::Create({{"dna", AttributeType::kAlphanumeric}}));
  std::vector<double> weights(options.num_clusters, 1.0);
  std::vector<int> labels = AssignClusters(n, weights, prng);

  LabeledDataset out{DataMatrix(schema), labels};
  for (size_t i = 0; i < n; ++i) {
    std::string sequence =
        Mutate(ancestors[labels[i]], dna, options.substitution_rate,
               options.indel_rate, prng);
    PPC_RETURN_IF_ERROR(
        out.data.AppendRow({Value::Alphanumeric(std::move(sequence))}));
  }
  return out;
}

Result<LabeledDataset> Generators::CategoricalClusters(
    size_t n, const CategoricalOptions& options, Prng* prng) {
  if (options.num_clusters == 0 || options.num_attributes == 0 ||
      options.domain_size == 0) {
    return Status::InvalidArgument("all categorical options must be positive");
  }
  std::vector<AttributeSpec> specs;
  for (size_t a = 0; a < options.num_attributes; ++a) {
    specs.push_back({"cat" + std::to_string(a), AttributeType::kCategorical});
  }
  PPC_ASSIGN_OR_RETURN(Schema schema, Schema::Create(std::move(specs)));

  // Preferred symbol per (cluster, attribute).
  std::vector<std::vector<size_t>> preferred(options.num_clusters);
  for (auto& row : preferred) {
    for (size_t a = 0; a < options.num_attributes; ++a) {
      row.push_back(static_cast<size_t>(prng->NextBounded(options.domain_size)));
    }
  }

  std::vector<double> weights(options.num_clusters, 1.0);
  std::vector<int> labels = AssignClusters(n, weights, prng);

  LabeledDataset out{DataMatrix(schema), labels};
  for (size_t i = 0; i < n; ++i) {
    std::vector<Value> row;
    for (size_t a = 0; a < options.num_attributes; ++a) {
      size_t symbol = preferred[labels[i]][a];
      if (prng->NextUnitDouble() < options.noise) {
        symbol = static_cast<size_t>(prng->NextBounded(options.domain_size));
      }
      row.push_back(
          Value::Categorical(std::string("v").append(std::to_string(symbol))));
    }
    PPC_RETURN_IF_ERROR(out.data.AppendRow(std::move(row)));
  }
  return out;
}

Result<LabeledDataset> Generators::MixedClusters(size_t n,
                                                 const MixedOptions& options,
                                                 const Alphabet& alphabet,
                                                 Prng* prng) {
  if (options.num_clusters == 0 || options.numeric_dims == 0) {
    return Status::InvalidArgument("num_clusters and numeric_dims must be "
                                   "positive");
  }
  std::vector<AttributeSpec> specs;
  for (size_t d = 0; d < options.numeric_dims; ++d) {
    specs.push_back({"num" + std::to_string(d), AttributeType::kReal});
  }
  specs.push_back({"category", AttributeType::kCategorical});
  specs.push_back({"sequence", AttributeType::kAlphanumeric});
  PPC_ASSIGN_OR_RETURN(Schema schema, Schema::Create(std::move(specs)));

  // Cluster prototypes.
  std::vector<std::vector<double>> centers(options.num_clusters);
  std::vector<std::string> ancestors(options.num_clusters);
  for (size_t c = 0; c < options.num_clusters; ++c) {
    for (size_t d = 0; d < options.numeric_dims; ++d) {
      centers[c].push_back(Distributions::Uniform(
          prng, -options.center_spacing, options.center_spacing));
    }
    ancestors[c] = RandomString(options.string_length, alphabet, prng);
  }

  std::vector<double> weights(options.num_clusters, 1.0);
  std::vector<int> labels = AssignClusters(n, weights, prng);

  LabeledDataset out{DataMatrix(schema), labels};
  for (size_t i = 0; i < n; ++i) {
    int label = labels[i];
    std::vector<Value> row;
    for (size_t d = 0; d < options.numeric_dims; ++d) {
      row.push_back(Value::Real(Distributions::Gaussian(
          prng, centers[label][d], options.cluster_spread)));
    }
    size_t symbol = static_cast<size_t>(label) % options.categorical_domain;
    if (prng->NextUnitDouble() < options.categorical_noise) {
      symbol = static_cast<size_t>(prng->NextBounded(options.categorical_domain));
    }
    row.push_back(
        Value::Categorical(std::string("c").append(std::to_string(symbol))));
    row.push_back(Value::Alphanumeric(Mutate(
        ancestors[label], alphabet, options.string_mutation_rate, 0.0, prng)));
    PPC_RETURN_IF_ERROR(out.data.AppendRow(std::move(row)));
  }
  return out;
}

}  // namespace ppc
