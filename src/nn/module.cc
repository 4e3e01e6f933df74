#include "nn/module.h"

#include <cstdint>
#include <cstring>
#include <map>

#include "io/emxm.h"

namespace emx {
namespace nn {
namespace {

/// prefix for fp32 parameter sections inside an EMXM container.
std::string ParamSectionName(const std::string& name) { return "p:" + name; }

/// Finds every parameter's section and checks its kind, shape and payload
/// size against the model, before either loader touches a Variable, so a
/// bad container leaves the model untouched. The shape comes from the
/// model, never from the file, so no file field sizes an allocation.
Result<std::vector<const io::Section*>> ResolveParameters(
    const io::EmxmReader& reader, const std::vector<NamedParam>& params) {
  std::vector<const io::Section*> resolved;
  resolved.reserve(params.size());
  for (const auto& p : params) {
    const io::Section* s = reader.Find(ParamSectionName(p.name));
    if (s == nullptr) {
      return Status::NotFound("parameter '" + p.name + "' missing in " +
                              reader.path());
    }
    if (s->kind != io::SectionKind::kF32Tensor) {
      return Status::InvalidArgument("parameter '" + p.name + "' in " +
                                     reader.path() +
                                     " is not an fp32 tensor section");
    }
    const Tensor& dst_t = p.var.value();
    const uint64_t ndim = s->aux[0];
    bool shape_ok = ndim == static_cast<uint64_t>(dst_t.ndim()) && ndim <= 5;
    uint64_t numel = 1;
    for (uint64_t i = 0; shape_ok && i < ndim; ++i) {
      shape_ok = s->aux[1 + i] == static_cast<uint64_t>(dst_t.shape()[i]);
      numel *= s->aux[1 + i];
    }
    if (!shape_ok) {
      return Status::InvalidArgument(
          "parameter '" + p.name + "' shape mismatch in " + reader.path() +
          ": model expects " + ShapeToString(dst_t.shape()));
    }
    if (s->bytes != numel * sizeof(float)) {
      return Status::InvalidArgument("parameter '" + p.name + "' in " +
                                     reader.path() + " has " +
                                     std::to_string(s->bytes) +
                                     " payload bytes for " +
                                     std::to_string(numel) + " elements");
    }
    resolved.push_back(s);
  }
  return resolved;
}

}  // namespace

std::string JoinName(const std::string& prefix, const std::string& leaf) {
  if (prefix.empty()) return leaf;
  return prefix + "." + leaf;
}

Status SaveParameters(const std::string& path,
                      const std::vector<NamedParam>& params) {
  io::EmxmWriter writer;
  EMX_RETURN_IF_ERROR(AppendParametersEmxm(&writer, params));
  return writer.WriteFile(path);
}

Status LoadParameters(const std::string& path,
                      const std::vector<NamedParam>& params) {
  EMX_ASSIGN_OR_RETURN(std::shared_ptr<const io::EmxmReader> reader,
                       io::EmxmReader::Open(path));
  EMX_ASSIGN_OR_RETURN(std::vector<const io::Section*> resolved,
                       ResolveParameters(*reader, params));
  for (size_t i = 0; i < params.size(); ++i) {
    // Assign a fresh heap tensor wholesale: optimizer state lives on the
    // Variable (slots re-fetch mutable_value() each step), and assignment
    // also replaces a previously mapped (read-only external) value.
    Tensor t(params[i].var.value().shape());
    std::memcpy(t.data(), resolved[i]->data, resolved[i]->bytes);
    const_cast<Variable&>(params[i].var).mutable_value() = std::move(t);
  }
  return Status::OK();
}

Status AppendParametersEmxm(io::EmxmWriter* writer,
                            const std::vector<NamedParam>& params) {
  for (const auto& p : params) {
    const Tensor& t = p.var.value();
    if (t.ndim() > 5) {
      return Status::InvalidArgument("parameter '" + p.name + "' has " +
                                     std::to_string(t.ndim()) +
                                     " dims; EMXM sections carry at most 5");
    }
    std::array<uint64_t, 6> aux{};
    aux[0] = static_cast<uint64_t>(t.ndim());
    for (int64_t i = 0; i < t.ndim(); ++i) {
      aux[1 + i] = static_cast<uint64_t>(t.shape()[i]);
    }
    writer->AddSection(ParamSectionName(p.name), io::SectionKind::kF32Tensor,
                       aux, t.data(), t.size() * sizeof(float));
  }
  return Status::OK();
}

Status LoadParametersMapped(std::shared_ptr<const io::EmxmReader> reader,
                            const std::vector<NamedParam>& params) {
  EMX_ASSIGN_OR_RETURN(std::vector<const io::Section*> resolved,
                       ResolveParameters(*reader, params));
  for (size_t i = 0; i < params.size(); ++i) {
    // Zero-copy: the value becomes a read-only view of the mapped payload
    // (64-byte aligned by the EMXM layout), with the reader held alive by
    // every view. Nothing is read from disk here — pages fault in lazily
    // as forwards touch them, and stay shared across processes.
    const_cast<Variable&>(params[i].var).mutable_value() =
        Tensor::FromExternal(params[i].var.value().shape(),
                             reinterpret_cast<const float*>(resolved[i]->data),
                             reader);
  }
  return Status::OK();
}

int64_t CopyMatchingParameters(const std::vector<NamedParam>& src,
                               const std::vector<NamedParam>& dst) {
  std::map<std::string, const NamedParam*> index;
  for (const auto& p : src) index[p.name] = &p;
  int64_t copied = 0;
  for (const auto& d : dst) {
    auto it = index.find(d.name);
    if (it == index.end()) continue;
    const Tensor& s = it->second->var.value();
    if (s.shape() != d.var.value().shape()) continue;
    Tensor& t = const_cast<Variable&>(d.var).mutable_value();
    std::copy(s.data(), s.data() + s.size(), t.data());
    ++copied;
  }
  return copied;
}

}  // namespace nn
}  // namespace emx
