#include "tokenizers/tokenizer.h"

#include "util/logging.h"

namespace emx {
namespace tokenizers {

std::vector<int64_t> Tokenizer::Encode(std::string_view text) const {
  std::vector<int64_t> ids;
  for (const auto& tok : Tokenize(text)) {
    const int64_t id = vocab_.TokenToId(tok);
    ids.push_back(id >= 0 ? id : specials_.unk);
  }
  return ids;
}

void TruncatePair(std::vector<int64_t>* a, std::vector<int64_t>* b,
                  int64_t budget) {
  EMX_CHECK_GE(budget, 0);
  while (static_cast<int64_t>(a->size() + b->size()) > budget) {
    if (a->size() >= b->size() && !a->empty()) {
      a->pop_back();
    } else if (!b->empty()) {
      b->pop_back();
    } else {
      a->pop_back();
    }
  }
}

EncodedPair Tokenizer::EncodePair(std::string_view text_a,
                                  std::string_view text_b,
                                  int64_t max_len) const {
  EMX_CHECK_GE(max_len, 4) << "max_len must fit [CLS] a [SEP] b [SEP]";
  std::vector<int64_t> a = Encode(text_a);
  std::vector<int64_t> b = Encode(text_b);
  TruncatePair(&a, &b, max_len - 3);
  return AssemblePair(a, b, max_len);
}

EncodedPair Tokenizer::AssemblePair(const std::vector<int64_t>& a,
                                    const std::vector<int64_t>& b,
                                    int64_t max_len) const {
  EMX_CHECK_LE(static_cast<int64_t>(a.size() + b.size()) + 3, max_len)
      << "truncate the pair before assembling it";
  EncodedPair out;
  out.ids.reserve(static_cast<size_t>(max_len));
  out.ids.push_back(specials_.cls);
  out.segment_ids.push_back(0);
  for (int64_t id : a) {
    out.ids.push_back(id);
    out.segment_ids.push_back(0);
  }
  out.ids.push_back(specials_.sep);
  out.segment_ids.push_back(0);
  for (int64_t id : b) {
    out.ids.push_back(id);
    out.segment_ids.push_back(1);
  }
  out.ids.push_back(specials_.sep);
  out.segment_ids.push_back(1);

  out.attention_mask.assign(out.ids.size(), 0.0f);
  while (static_cast<int64_t>(out.ids.size()) < max_len) {
    out.ids.push_back(specials_.pad);
    out.segment_ids.push_back(0);
    out.attention_mask.push_back(1.0f);
  }
  return out;
}

EncodedPair Tokenizer::EncodeSingle(std::string_view text,
                                    int64_t max_len) const {
  EMX_CHECK_GE(max_len, 2);
  std::vector<int64_t> a = Encode(text);
  if (static_cast<int64_t>(a.size()) > max_len - 2) {
    a.resize(static_cast<size_t>(max_len - 2));
  }
  EncodedPair out;
  out.ids.push_back(specials_.cls);
  for (int64_t id : a) out.ids.push_back(id);
  out.ids.push_back(specials_.sep);
  out.segment_ids.assign(out.ids.size(), 0);
  out.attention_mask.assign(out.ids.size(), 0.0f);
  while (static_cast<int64_t>(out.ids.size()) < max_len) {
    out.ids.push_back(specials_.pad);
    out.segment_ids.push_back(0);
    out.attention_mask.push_back(1.0f);
  }
  return out;
}

}  // namespace tokenizers
}  // namespace emx
