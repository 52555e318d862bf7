//===- support/TextScan.h - Line and token scanning ------------*- C++ -*-===//
//
// Part of the modsched project (PLDI'97 optimal modulo scheduling repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one tokenizer behind the text formats (textio) and the service
/// wire protocol: std::string_view line and token scanning plus a
/// string_view-keyed name table, none of which allocates per line or
/// per token. Every view points into the scanned text, so that text must
/// outlive the views and the NameIndex holding them.
///
//===----------------------------------------------------------------------===//

#ifndef MODSCHED_SUPPORT_TEXTSCAN_H
#define MODSCHED_SUPPORT_TEXTSCAN_H

#include <charconv>
#include <cstddef>
#include <span>
#include <string_view>
#include <system_error>
#include <vector>

namespace modsched {

/// Splits text into lines with std::getline semantics: \p Delim ('\n'
/// unless given) ends a line and is dropped, a final line without it
/// still counts, and text that ends in \p Delim has no empty line after
/// it.
class LineReader {
public:
  explicit LineReader(std::string_view Text, char Delim = '\n')
      : Rest(Text), Delim(Delim) {}

  /// Stores the next line in \p Line; false once the text is used up.
  bool next(std::string_view &Line) {
    if (Rest.empty())
      return false;
    std::size_t End = Rest.find(Delim);
    Line = Rest.substr(0, End);
    Rest.remove_prefix(End == std::string_view::npos ? Rest.size() : End + 1);
    return true;
  }

private:
  std::string_view Rest;
  char Delim;
};

/// Which bytes separate tokens.
enum class Blanks {
  /// The "C" locale's isspace set (' ', \t, \n, \v, \f, \r): the bytes
  /// `std::istream >> std::string` skips.
  Whitespace,
  /// Only ' ' and '\t' (the service protocol's header lines).
  SpaceTab,
};

/// Splits text into maximal runs of non-separator bytes. With
/// \p HashComments, a token that starts with '#' ends the text: it and
/// everything after it are dropped, while "a#b" stays one ordinary token.
class TokenReader {
public:
  explicit TokenReader(std::string_view Text,
                       Blanks Separators = Blanks::Whitespace,
                       bool HashComments = true)
      : Rest(Text), Separators(Separators), HashComments(HashComments) {}

  /// Stores the next token in \p Tok; false at the end of the text.
  bool next(std::string_view &Tok) {
    std::size_t Begin = 0;
    while (Begin < Rest.size() && isSeparator(Rest[Begin]))
      ++Begin;
    std::size_t End = Begin;
    while (End < Rest.size() && !isSeparator(Rest[End]))
      ++End;
    Tok = Rest.substr(Begin, End - Begin);
    Rest.remove_prefix(End);
    if (Tok.empty() || (HashComments && Tok.front() == '#')) {
      Rest = {};
      return false;
    }
    return true;
  }

private:
  bool isSeparator(char C) const {
    if (C == ' ' || C == '\t')
      return true;
    return Separators == Blanks::Whitespace &&
           (C == '\n' || C == '\v' || C == '\f' || C == '\r');
  }

  std::string_view Rest;
  Blanks Separators;
  bool HashComments;
};

/// Splits one line of a '#'-commented, whitespace-separated text format
/// into \p Out. Returns the number of tokens on the line, which may
/// exceed Out.size(): tokens past the end of \p Out are counted, not
/// stored.
inline std::size_t splitTokens(std::string_view Line,
                               std::span<std::string_view> Out,
                               Blanks Separators = Blanks::Whitespace,
                               bool HashComments = true) {
  TokenReader Reader(Line, Separators, HashComments);
  std::size_t N = 0;
  std::string_view Tok;
  while (Reader.next(Tok)) {
    if (N < Out.size())
      Out[N] = Tok;
    ++N;
  }
  return N;
}

/// Parses all of \p S as a decimal integer with an optional leading '+'
/// or '-': exactly the whitespace-free tokens std::stoi / std::stoll
/// consume in full. An empty, partly numeric ("5x", "0x10"), doubly
/// signed ("+-5") or out-of-range \p S is rejected and leaves \p Out
/// unchanged.
template <typename IntT>
bool parseSignedDecimal(std::string_view S, IntT &Out) {
  if (!S.empty() && S.front() == '+') {
    S.remove_prefix(1);
    if (!S.empty() && S.front() == '-')
      return false;
  }
  IntT Value{};
  const char *End = S.data() + S.size();
  auto [Ptr, Ec] = std::from_chars(S.data(), End, Value);
  if (Ec != std::errc() || Ptr != End)
    return false;
  Out = Value;
  return true;
}

/// Dense ids 0, 1, 2, ... for names in insertion order: a flat
/// open-addressing hash table keyed by string_view. Lookups never
/// allocate; the table grows by doubling.
class NameIndex {
public:
  /// The id of \p Name, or -1 when absent.
  int find(std::string_view Name) const {
    return Slots.empty() ? -1 : Slots[slotFor(Name)];
  }

  /// Adds \p Name with id size(). Returns false, adding nothing, when
  /// \p Name is already present.
  bool insert(std::string_view Name);

  int size() const { return static_cast<int>(Names.size()); }

private:
  /// The slot holding \p Name, or the empty slot where it belongs.
  std::size_t slotFor(std::string_view Name) const;

  std::vector<std::string_view> Names;
  /// Id per slot, -1 when empty; a power of two, at most half full.
  std::vector<int> Slots;
};

} // namespace modsched

#endif // MODSCHED_SUPPORT_TEXTSCAN_H
