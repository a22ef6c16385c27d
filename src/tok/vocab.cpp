#include "tok/vocab.hpp"

#include "util/check.hpp"
#include "util/str.hpp"

namespace lmpeel::tok {

Vocab::Vocab() {
  tokens_.reserve(kNumSpecial + 256 + 1100);
  tokens_.push_back("<|bos|>");
  tokens_.push_back("<|eos|>");
  tokens_.push_back("<|system|>");
  tokens_.push_back("<|user|>");
  tokens_.push_back("<|assistant|>");
  for (int b = 0; b < 256; ++b) {
    tokens_.push_back(std::string(1, static_cast<char>(b)));
  }
  for (int len = 2; len <= 3; ++len) {
    const int count = len == 2 ? 100 : 1000;
    for (int v = 0; v < count; ++v) {
      std::string digits(len, '0');
      int value = v;
      for (int pos = len - 1; pos >= 0; --pos) {
        digits[pos] = static_cast<char>('0' + value % 10);
        value /= 10;
      }
      tokens_.push_back(std::move(digits));
    }
  }
  // number_token(len, value) computes ids from this layout.
  LMPEEL_CHECK(size() == kThreeDigitBase + 1000);
  for (int id = 0; id < static_cast<int>(tokens_.size()); ++id) {
    index_.emplace(tokens_[id], id);
  }
}

const std::string& Vocab::text(int id) const {
  LMPEEL_CHECK(id >= 0 && id < size());
  return tokens_[id];
}

std::optional<int> Vocab::find(std::string_view text) const {
  const auto it = index_.find(std::string(text));
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

int Vocab::byte_token(unsigned char byte) const noexcept {
  return kByteBase + static_cast<int>(byte);
}

int Vocab::number_token(int len, int value) const {
  LMPEEL_CHECK(len >= 1 && len <= 3);
  LMPEEL_CHECK(value >= 0 && value < (len == 1 ? 10 : len == 2 ? 100 : 1000));
  switch (len) {
    case 1:
      return byte_token(static_cast<unsigned char>('0' + value));
    case 2:
      return kTwoDigitBase + value;
    default:
      return kThreeDigitBase + value;
  }
}

int Vocab::number_token(std::string_view digits) const {
  LMPEEL_CHECK(util::all_digits(digits));
  LMPEEL_CHECK(digits.size() >= 1 && digits.size() <= 3);
  int value = 0;
  for (const char c : digits) value = value * 10 + (c - '0');
  return number_token(static_cast<int>(digits.size()), value);
}

bool Vocab::is_number(int id) const {
  LMPEEL_CHECK(id >= 0 && id < size());
  return util::all_digits(tokens_[id]);
}

bool Vocab::is_dot(int id) const noexcept {
  return id == kByteBase + static_cast<int>('.');
}

int Vocab::add(std::string text) {
  LMPEEL_CHECK(!text.empty());
  LMPEEL_CHECK_MSG(!index_.contains(text), "duplicate token: " + text);
  tokens_.push_back(text);
  const int id = size() - 1;
  index_.emplace(std::move(text), id);
  return id;
}

}  // namespace lmpeel::tok
