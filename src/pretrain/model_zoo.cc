#include "pretrain/model_zoo.h"

#include <bit>
#include <filesystem>

#include "tokenizers/byte_bpe.h"
#include "tokenizers/unigram.h"
#include "tokenizers/wordpiece.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace emx {
namespace pretrain {
namespace {

namespace fs = std::filesystem;

std::string TokenizerTag(models::Architecture arch) {
  switch (arch) {
    case models::Architecture::kBert:
    case models::Architecture::kDistilBert:
      return "wordpiece";
    case models::Architecture::kRoberta:
      return "bytebpe";
    case models::Architecture::kXlnet:
      return "unigram";
  }
  return "?";
}

std::string CachePrefix(const ZooOptions& options,
                        models::Architecture arch) {
  return options.cache_dir + "/" + TokenizerTag(arch) + "_v" +
         std::to_string(options.vocab_size) + "_c" +
         std::to_string(options.corpus.num_documents) + "_s" +
         std::to_string(options.corpus.seed);
}

Status EnsureCacheDir(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create cache dir " + dir);
  return Status::OK();
}

}  // namespace

std::string PretrainedModelPath(models::Architecture arch,
                                const ZooOptions& options,
                                const models::TransformerConfig& config) {
  // FNV-1a over every value that changes the pre-trained weights; floats
  // by their bits, so two options that print alike still differ.
  uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h = (h ^ ((v >> (8 * byte)) & 0xFF)) * 1099511628211ull;
    }
  };
  const auto mix_f = [&mix](float v) { mix(std::bit_cast<uint32_t>(v)); };
  const auto mix_d = [&mix](double v) { mix(std::bit_cast<uint64_t>(v)); };
  const PretrainOptions& p = options.pretrain;
  mix(static_cast<uint64_t>(config.hidden));
  mix(static_cast<uint64_t>(config.num_layers));
  mix(static_cast<uint64_t>(config.max_seq_len));
  mix(static_cast<uint64_t>(p.steps));
  mix(static_cast<uint64_t>(p.batch_size));
  mix_f(p.learning_rate);
  mix(static_cast<uint64_t>(p.warmup_steps));
  mix(static_cast<uint64_t>(p.data.max_seq_len));
  mix_d(p.data.mask_prob);
  mix_d(p.data.mask_token_prob);
  mix_d(p.data.random_token_prob);
  mix(p.data.seed);
  mix_f(p.distill_soft_weight);
  mix_f(p.distill_mlm_weight);
  mix_f(p.distill_cosine_weight);
  mix_f(p.distill_temperature);
  mix_f(p.pair_task_weight);
  mix(p.seed);
  return StrFormat("%s_%s_h%lld_l%lld_t%lld_len%lld_%016llx.emxm",
                   CachePrefix(options, arch).c_str(),
                   models::ArchitectureName(arch),
                   static_cast<long long>(config.hidden),
                   static_cast<long long>(config.num_layers),
                   static_cast<long long>(p.steps),
                   static_cast<long long>(p.data.max_seq_len),
                   static_cast<unsigned long long>(h));
}

Result<std::unique_ptr<tokenizers::Tokenizer>> GetTokenizer(
    models::Architecture arch, const ZooOptions& options) {
  EMX_RETURN_IF_ERROR(EnsureCacheDir(options.cache_dir));
  const std::string prefix = CachePrefix(options, arch);

  switch (arch) {
    case models::Architecture::kBert:
    case models::Architecture::kDistilBert: {
      const std::string path = prefix + ".vocab";
      if (!options.force_retrain && fs::exists(path)) {
        EMX_ASSIGN_OR_RETURN(auto tok, tokenizers::WordPieceTokenizer::Load(path));
        return {std::make_unique<tokenizers::WordPieceTokenizer>(std::move(tok))};
      }
      auto corpus = FlattenCorpus(GenerateCorpus(options.corpus));
      tokenizers::WordPieceTrainerOptions topts;
      topts.vocab_size = options.vocab_size;
      auto tok = tokenizers::WordPieceTokenizer::Train(corpus, topts);
      EMX_RETURN_IF_ERROR(tok.vocab().Save(path));
      return {std::make_unique<tokenizers::WordPieceTokenizer>(std::move(tok))};
    }
    case models::Architecture::kRoberta: {
      const std::string vpath = prefix + ".vocab";
      const std::string mpath = prefix + ".merges";
      if (!options.force_retrain && fs::exists(vpath) && fs::exists(mpath)) {
        EMX_ASSIGN_OR_RETURN(auto tok,
                             tokenizers::ByteBpeTokenizer::Load(vpath, mpath));
        return {std::make_unique<tokenizers::ByteBpeTokenizer>(std::move(tok))};
      }
      auto corpus = FlattenCorpus(GenerateCorpus(options.corpus));
      tokenizers::ByteBpeTrainerOptions topts;
      topts.vocab_size = options.vocab_size;
      auto tok = tokenizers::ByteBpeTokenizer::Train(corpus, topts);
      EMX_RETURN_IF_ERROR(tok.Save(vpath, mpath));
      return {std::make_unique<tokenizers::ByteBpeTokenizer>(std::move(tok))};
    }
    case models::Architecture::kXlnet: {
      const std::string path = prefix + ".vocab";
      if (!options.force_retrain && fs::exists(path)) {
        EMX_ASSIGN_OR_RETURN(auto tok, tokenizers::UnigramTokenizer::Load(path));
        return {std::make_unique<tokenizers::UnigramTokenizer>(std::move(tok))};
      }
      auto corpus = FlattenCorpus(GenerateCorpus(options.corpus));
      tokenizers::UnigramTrainerOptions topts;
      topts.vocab_size = options.vocab_size;
      auto tok = tokenizers::UnigramTokenizer::Train(corpus, topts);
      EMX_RETURN_IF_ERROR(tok.Save(path));
      return {std::make_unique<tokenizers::UnigramTokenizer>(std::move(tok))};
    }
  }
  return Status::InvalidArgument("unknown architecture");
}

Result<PretrainedBundle> GetPretrained(models::Architecture arch,
                                       const ZooOptions& options) {
  EMX_ASSIGN_OR_RETURN(auto tokenizer, GetTokenizer(arch, options));

  models::TransformerConfig config =
      models::TransformerConfig::Scaled(arch, tokenizer->vocab_size());
  config.max_seq_len =
      std::max<int64_t>(config.max_seq_len, options.pretrain.data.max_seq_len);

  Rng init_rng(options.pretrain.seed ^ static_cast<uint64_t>(arch));
  auto model = models::CreateTransformer(config, &init_rng);

  const std::string model_path = PretrainedModelPath(arch, options, config);

  if (options.skip_pretraining) {
    return PretrainedBundle{std::move(model), std::move(tokenizer)};
  }

  if (!options.force_retrain && std::filesystem::exists(model_path)) {
    EMX_RETURN_IF_ERROR(nn::LoadParameters(model_path, model->Parameters()));
    return PretrainedBundle{std::move(model), std::move(tokenizer)};
  }

  auto corpus = GenerateCorpus(options.corpus);

  // DistilBERT distills from the (cached) pre-trained BERT teacher.
  std::unique_ptr<models::TransformerModel> teacher_holder;
  models::TransformerModel* teacher = nullptr;
  if (arch == models::Architecture::kDistilBert) {
    EMX_ASSIGN_OR_RETURN(auto bert_bundle,
                         GetPretrained(models::Architecture::kBert, options));
    teacher_holder = std::move(bert_bundle.model);
    teacher = teacher_holder.get();
  }

  EMX_ASSIGN_OR_RETURN(
      auto stats, Pretrain(model.get(), tokenizer.get(), corpus,
                           options.pretrain, teacher));
  EMX_LOG(Info) << models::ArchitectureName(arch) << " pre-trained: loss "
                << stats.first_loss << " -> " << stats.final_loss << " over "
                << stats.steps << " steps";

  EMX_RETURN_IF_ERROR(nn::SaveParameters(model_path, model->Parameters()));
  return PretrainedBundle{std::move(model), std::move(tokenizer)};
}

}  // namespace pretrain
}  // namespace emx
