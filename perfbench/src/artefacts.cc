// Artefact preparation: run once per checkout, before any measured run,
// into the benchmark's own scratch directory. Measured runs only read it.

#include <fstream>
#include <utility>

#include "bench.h"
#include "data/generators.h"
#include "models/encoder.h"
#include "pretrain/model_zoo.h"
#include "quant/model_file.h"
#include "quant/quantize_matcher.h"
#include "retrieval/catalog_matcher.h"
#include "serve/matcher_engine.h"

namespace perfbench {

namespace {

constexpr int64_t kCatalogRecords = 100000;
constexpr int64_t kCatalogQueries = 1000;

emx::pretrain::ZooOptions Zoo(const Artefacts& a) {
  emx::pretrain::ZooOptions zoo;
  zoo.cache_dir = a.zoo();
  return zoo;
}

emx::Status WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  out.close();
  return out ? emx::Status::OK()
             : emx::Status::IoError("cannot write " + path);
}

}  // namespace

emx::Result<std::unique_ptr<emx::core::EntityMatcher>> NewMatcher(
    const Artefacts& a) {
  EMX_ASSIGN_OR_RETURN(auto tokenizer, emx::pretrain::GetTokenizer(
                                           emx::models::Architecture::kBert,
                                           Zoo(a)));
  const emx::models::TransformerConfig config =
      emx::models::TransformerConfig::Scaled(emx::models::Architecture::kBert,
                                             tokenizer->vocab_size());
  emx::Rng rng(kArtefactSeed);
  emx::pretrain::PretrainedBundle bundle;
  bundle.model = std::make_unique<emx::models::EncoderModel>(config, &rng);
  bundle.tokenizer = std::move(tokenizer);
  auto matcher =
      std::make_unique<emx::core::EntityMatcher>(std::move(bundle));
  matcher->set_eval_max_seq_len(config.max_seq_len);
  return matcher;
}

emx::Status PrepareArtefacts(const Artefacts& a) {
  // Tokenizer (trained and cached by the zoo) and a seeded random-weight
  // model: timing depends on shapes, not on weight values.
  EMX_ASSIGN_OR_RETURN(auto matcher, NewMatcher(a));
  EMX_RETURN_IF_ERROR(matcher->Save(a.model_fp32()));

  // Catalog over the fp32 engine the catalog workload serves with.
  {
    emx::serve::EngineOptions eo;
    eo.max_seq_len = matcher->eval_max_seq_len();
    eo.split_layer = emx::serve::DefaultSplitLayer(
        matcher->classifier()->config().num_layers);
    emx::serve::MatcherEngine engine(matcher.get(), eo);
    emx::data::CatalogSpec spec;
    spec.seed = kArtefactSeed;
    spec.num_records = kCatalogRecords;
    spec.num_queries = kCatalogQueries;
    emx::data::Catalog cat = emx::data::GenerateCatalog(spec);
    emx::retrieval::CatalogMatcher catalog(&engine);
    catalog.AddBatch(std::move(cat.records));
    EMX_RETURN_IF_ERROR(catalog.Save(a.catalog()));
    std::string text;
    for (size_t q = 0; q < cat.queries.size(); ++q) {
      std::string query = cat.queries[q];
      for (char& c : query) {
        if (c == '\n' || c == '\t') c = ' ';
      }
      text += std::to_string(cat.truth[q]) + "\t" + query + "\n";
    }
    EMX_RETURN_IF_ERROR(WriteText(a.queries(), text));
  }

  // int8: calibrate on a fixed pair set, quantize, save the EMXM container.
  {
    emx::quant::CalibrationData calib;
    for (const TextPair& p : MakeDistinctPairs(kArtefactSeed, 256)) {
      calib.texts_a.push_back(p.first);
      calib.texts_b.push_back(p.second);
    }
    EMX_RETURN_IF_ERROR(
        emx::quant::QuantizeMatcher(matcher.get(), calib).status());
    EMX_RETURN_IF_ERROR(
        emx::quant::SaveModelFile(matcher.get(), a.model_int8()));
  }
  return WriteText(a.ready(), "perfbench artefacts v1\n");
}

emx::Result<QuerySet> LoadQueries(const Artefacts& a) {
  std::ifstream in(a.queries());
  if (!in) return emx::Status::IoError("cannot open " + a.queries());
  QuerySet set;
  std::string line;
  while (std::getline(in, line)) {
    const size_t tab = line.find('\t');
    if (tab == std::string::npos) {
      return emx::Status::InvalidArgument("malformed query line");
    }
    set.truth.push_back(std::stoll(line.substr(0, tab)));
    set.texts.push_back(line.substr(tab + 1));
  }
  if (set.texts.empty()) return emx::Status::InvalidArgument("no queries");
  return set;
}

}  // namespace perfbench
