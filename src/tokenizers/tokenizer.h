#ifndef EMX_TOKENIZERS_TOKENIZER_H_
#define EMX_TOKENIZERS_TOKENIZER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "tokenizers/vocab.h"

namespace emx {
namespace tokenizers {

/// A tokenized entity pair ready to feed a transformer, following the
/// paper's Figure 9: [CLS] A1..AN [SEP] B1..BM [SEP], padded to a fixed
/// length, with segment ids distinguishing entity A (0) from entity B (1)
/// and an attention mask marking padding (1 = padded/blocked).
struct EncodedPair {
  std::vector<int64_t> ids;
  std::vector<int64_t> segment_ids;
  std::vector<float> attention_mask;  // 1 where padded
};

/// Interface shared by the three subword tokenizers (WordPiece for
/// BERT/DistilBERT, byte-level BPE for RoBERTa, SentencePiece-unigram for
/// XLNet).
class Tokenizer {
 public:
  virtual ~Tokenizer() = default;

  /// Splits text into subword token strings (no special symbols).
  virtual std::vector<std::string> Tokenize(std::string_view text) const = 0;

  /// Tokenize + vocabulary lookup (unknown pieces map to unk).
  std::vector<int64_t> Encode(std::string_view text) const;

  /// Reassembles a best-effort string from token ids (for debugging).
  virtual std::string Decode(const std::vector<int64_t>& ids) const = 0;

  /// Builds the [CLS] a [SEP] b [SEP] encoding of Figure 9, truncating the
  /// longer entity first so both fit in max_len, then padding: Encode each
  /// side, TruncatePair(max_len - 3), AssemblePair.
  EncodedPair EncodePair(std::string_view text_a, std::string_view text_b,
                         int64_t max_len) const;

  /// The layout step of EncodePair: lays out already-truncated entity
  /// tokens (no specials; a.size() + b.size() + 3 <= max_len) as
  /// [CLS] a [SEP] b [SEP] and pads to max_len.
  EncodedPair AssemblePair(const std::vector<int64_t>& a,
                           const std::vector<int64_t>& b,
                           int64_t max_len) const;

  /// Builds a single-segment encoding [CLS] a [SEP], padded to max_len.
  EncodedPair EncodeSingle(std::string_view text, int64_t max_len) const;

  const Vocab& vocab() const { return vocab_; }
  const SpecialTokens& specials() const { return specials_; }
  int64_t vocab_size() const { return vocab_.size(); }

 protected:
  Vocab vocab_;
  SpecialTokens specials_;
};

/// Truncates two token-id sequences in place so that
/// a.size() + b.size() <= budget, removing from the longer one first
/// (the "longest-first" strategy used for sequence-pair tasks).
void TruncatePair(std::vector<int64_t>* a, std::vector<int64_t>* b,
                  int64_t budget);

}  // namespace tokenizers
}  // namespace emx

#endif  // EMX_TOKENIZERS_TOKENIZER_H_
