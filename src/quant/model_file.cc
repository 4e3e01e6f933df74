#include "quant/model_file.h"

#include <array>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "io/emxm.h"
#include "nn/module.h"
#include "quant/int8_gemm.h"
#include "quant/quantize_matcher.h"

namespace emx {
namespace quant {
namespace {

std::string QwName(const std::string& name) { return "q:" + name + ":qw"; }
std::string WsName(const std::string& name) { return "q:" + name + ":ws"; }
std::string BiasName(const std::string& name) {
  return "q:" + name + ":bias";
}
std::string CsName(const std::string& name) { return "q:" + name + ":cs"; }
std::string FfnName(const std::string& name) { return "q:" + name + ":ffn"; }

}  // namespace

Status SaveModelFile(core::EntityMatcher* matcher, const std::string& path) {
  if (!IsQuantized(matcher)) return matcher->Save(path);
  const FlatQuantTargets flat = FlattenQuantTargets(matcher);
  return matcher->Save(path, [&flat](io::EmxmWriter* writer) -> Status {
    for (const auto& [name, layer] : flat.linears) {
      if (layer->backend() == nullptr || !layer->backend()->ready()) {
        return Status::InvalidArgument(
            "SaveModelFile: layer '" + name +
            "' is not quantized; quantize fully or clear quantization");
      }
      const PackedWeights& w = Int8BackendOf(layer)->packed();
      std::array<uint64_t, 6> aux{};
      aux[0] = static_cast<uint64_t>(w.in);
      aux[1] = static_cast<uint64_t>(w.out);
      aux[2] = static_cast<uint64_t>(w.k_padded);
      aux[3] = static_cast<uint64_t>(w.n_padded);
      aux[4] = io::AuxFromF32(w.act.scale);
      aux[5] = static_cast<uint64_t>(w.act.zero_point);
      // The packed kernel image verbatim — including col_sums below, so
      // the mapped loader never has to touch the weight bytes.
      writer->AddSection(
          QwName(name), io::SectionKind::kInt8Packed, aux, w.packed_data(),
          static_cast<uint64_t>(w.k_padded) * static_cast<uint64_t>(w.n_padded));
      std::array<uint64_t, 6> count_aux{};
      count_aux[0] = static_cast<uint64_t>(w.out);
      writer->AddSection(WsName(name), io::SectionKind::kF32Vec, count_aux,
                         w.w_scales.data(), w.w_scales.size() * sizeof(float));
      writer->AddSection(BiasName(name), io::SectionKind::kF32Vec, count_aux,
                         w.bias.data(), w.bias.size() * sizeof(float));
      writer->AddSection(CsName(name), io::SectionKind::kI32Vec, count_aux,
                         w.col_sums.data(),
                         w.col_sums.size() * sizeof(int32_t));
    }
    for (const auto& [name, ffn] : flat.ffns) {
      if (ffn->backend() == nullptr || !ffn->backend()->ready()) {
        return Status::InvalidArgument("SaveModelFile: FFN '" + name +
                                       "' has no fused backend");
      }
      const auto* be =
          static_cast<const Int8FfnBackend*>(ffn->backend().get());
      const QuantParams mid = be->mid_in();
      std::array<uint64_t, 6> aux{};
      aux[0] = static_cast<uint64_t>(be->activation());
      aux[1] = io::AuxFromF32(mid.scale);
      aux[2] = static_cast<uint64_t>(mid.zero_point);
      writer->AddSection(FfnName(name), io::SectionKind::kFfnMeta, aux,
                         nullptr, 0);
    }
    return Status::OK();
  });
}

Result<ModelFileInfo> LoadModelFileMapped(core::EntityMatcher* matcher,
                                          const std::string& path) {
  EMX_ASSIGN_OR_RETURN(std::shared_ptr<const io::EmxmReader> reader,
                       io::EmxmReader::Open(path));

  const io::Section* manifest = reader->Find(io::kManifestSection);
  if (manifest == nullptr || manifest->kind != io::SectionKind::kManifest) {
    return Status::InvalidArgument(path + " has no model manifest");
  }
  const std::string arch(reinterpret_cast<const char*>(manifest->data),
                         manifest->bytes);
  if (arch != matcher->arch_name()) {
    return Status::InvalidArgument(
        path + " holds a " + arch + " model; this matcher is " +
        matcher->arch_name());
  }

  ModelFileInfo info;
  info.fp32_params = static_cast<int64_t>(manifest->aux[0]);
  info.int8_linears = static_cast<int64_t>(manifest->aux[1]);
  info.int8_ffns = static_cast<int64_t>(manifest->aux[2]);
  info.has_int8 = manifest->aux[1] > 0;

  FlatQuantTargets flat = FlattenQuantTargets(matcher);
  std::map<std::string, std::shared_ptr<Int8LinearBackend>> backends;
  std::map<std::string, std::shared_ptr<Int8FfnBackend>> ffn_backends;
  if (info.has_int8) {
    // Build every backend before attaching any (and before the fp32 copy
    // below), so a bad container cannot leave a half-swapped matcher.
    for (auto& [name, layer] : flat.linears) {
      const io::Section* qw = reader->Find(QwName(name));
      if (qw == nullptr) {
        return Status::InvalidArgument(path + " does not cover layer '" +
                                       name + "'");
      }
      if (qw->kind != io::SectionKind::kInt8Packed) {
        return Status::InvalidArgument("section '" + QwName(name) + "' in " +
                                       path + " is not a packed int8 image");
      }
      const int64_t in = static_cast<int64_t>(qw->aux[0]);
      const int64_t out = static_cast<int64_t>(qw->aux[1]);
      if (in != layer->in_features() || out != layer->out_features()) {
        return Status::InvalidArgument(
            "quantized layer '" + name + "' shape mismatch: file has [" +
            std::to_string(in) + ", " + std::to_string(out) +
            "], model expects [" + std::to_string(layer->in_features()) +
            ", " + std::to_string(layer->out_features()) + "]");
      }
      QuantParams act;
      act.scale = io::F32FromAux(qw->aux[4]);
      act.zero_point = static_cast<int32_t>(qw->aux[5]);

      const uint64_t out_u = static_cast<uint64_t>(out);
      using io::SectionKind;
      EMX_ASSIGN_OR_RETURN(
          const std::span<const float> ws,
          reader->View<float>(WsName(name), SectionKind::kF32Vec, out_u));
      EMX_ASSIGN_OR_RETURN(
          const std::span<const float> bias,
          reader->View<float>(BiasName(name), SectionKind::kF32Vec, out_u));
      EMX_ASSIGN_OR_RETURN(
          const std::span<const int32_t> cs,
          reader->View<int32_t>(CsName(name), SectionKind::kI32Vec, out_u));

      // The O(out) epilogue arrays are copied (they are cheap and keep
      // the struct layout uniform); only the O(in*out) packed image is
      // aliased, with the reader as keepalive.
      EMX_ASSIGN_OR_RETURN(
          PackedWeights packed,
          ViewPackedWeights(in, out,
                            reinterpret_cast<const int8_t*>(qw->data),
                            qw->bytes, reader,
                            std::vector<float>(ws.begin(), ws.end()),
                            std::vector<float>(bias.begin(), bias.end()),
                            std::vector<int32_t>(cs.begin(), cs.end()), act));
      if (static_cast<int64_t>(qw->aux[2]) != packed.k_padded ||
          static_cast<int64_t>(qw->aux[3]) != packed.n_padded) {
        return Status::InvalidArgument("section '" + QwName(name) + "' in " +
                                       path +
                                       " declares inconsistent padding");
      }
      auto backend = std::make_shared<Int8LinearBackend>();
      backend->FreezeFromPacked(std::move(packed));
      backends[name] = backend;
    }
    for (auto& [name, ffn] : flat.ffns) {
      const io::Section* meta = reader->Find(FfnName(name));
      if (meta == nullptr || meta->kind != io::SectionKind::kFfnMeta) {
        return Status::InvalidArgument(path + " does not cover FFN '" +
                                       name + "'");
      }
      if (meta->aux[0] != static_cast<uint64_t>(ffn->activation())) {
        return Status::InvalidArgument("quantized FFN '" + name +
                                       "' activation mismatch in " + path);
      }
      QuantParams mid;
      mid.scale = io::F32FromAux(meta->aux[1]);
      mid.zero_point = static_cast<int32_t>(meta->aux[2]);
      auto fc1 = backends.find(nn::JoinName(name, "fc1"));
      auto fc2 = backends.find(nn::JoinName(name, "fc2"));
      if (fc1 == backends.end() || fc2 == backends.end()) {
        return Status::InvalidArgument("FFN '" + name + "' in " + path +
                                       " is missing its fc1/fc2 entries");
      }
      ffn_backends[name] = std::make_shared<Int8FfnBackend>(
          fc1->second->packed(), fc2->second->packed(), mid,
          ffn->activation());
    }
  }

  // fp32 is itself all-or-nothing (validate-then-attach), so this is the
  // first mutation and the last fallible step.
  std::vector<nn::NamedParam> params = matcher->classifier()->Parameters();
  EMX_RETURN_IF_ERROR(nn::LoadParametersMapped(reader, params));

  if (info.has_int8) {
    for (auto& [name, layer] : flat.linears) {
      layer->set_backend(backends[name]);
    }
    for (auto& [name, ffn] : flat.ffns) {
      ffn->set_backend(ffn_backends[name]);
    }
  }
  return info;
}

}  // namespace quant
}  // namespace emx
