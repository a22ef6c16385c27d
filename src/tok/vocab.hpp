// Token vocabulary: special tokens, byte fallback, atomic number tokens and
// learned BPE merges.
//
// The layout mirrors what matters about the Llama-3 tokenizer for this
// paper: digits are grouped into atomic tokens of one to three characters
// (ids for "0".."9" are the byte tokens; "00".."999" get dedicated ids), so
// a decimal literal like 0.0022155 becomes the token sequence
// ["0", ".", "002", "215", "5"] — the structure Table II's per-position
// analysis is built on.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace lmpeel::tok {

/// Special token ids (fixed, always present).
enum SpecialToken : int {
  kBos = 0,
  kEos = 1,
  kSystem = 2,     ///< start of system-instruction section
  kUser = 3,       ///< start of user section
  kAssistant = 4,  ///< start of assistant response
  kNumSpecial = 5,
};

class Vocab {
 public:
  /// Builds the base vocabulary: specials, 256 byte tokens, and the 1100
  /// multi-digit number tokens ("00".."99", "000".."999").
  Vocab();

  int size() const noexcept { return static_cast<int>(tokens_.size()); }

  const std::string& text(int id) const;

  /// Exact-string lookup.
  std::optional<int> find(std::string_view text) const;

  /// Id of the single-byte token for `byte`.
  int byte_token(unsigned char byte) const noexcept;

  /// Id of the `len`-digit group whose zero-padded decimal value is
  /// `value` (len 1..3, value in [0, 10^len)).  Pure arithmetic over the
  /// fixed base layout: byte tokens for one digit, then "00".."99", then
  /// "000".."999" — no string is built and no hash is probed.
  int number_token(int len, int value) const;

  /// Id of an all-digit string of length 1..3.
  int number_token(std::string_view digits) const;

  /// True for tokens consisting solely of ASCII digits.
  bool is_number(int id) const;

  /// True for the "." byte token.
  bool is_dot(int id) const noexcept;

  /// Appends a learned (BPE) token; returns its id.
  int add(std::string text);

  static constexpr int kByteBase = kNumSpecial;  // byte tokens start here

 private:
  static constexpr int kTwoDigitBase = kByteBase + 256;  // "00".."99"
  static constexpr int kThreeDigitBase = kTwoDigitBase + 100;  // "000"..
  std::vector<std::string> tokens_;
  std::unordered_map<std::string, int> index_;
};

}  // namespace lmpeel::tok
