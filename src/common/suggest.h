// Shared "did you mean" machinery for user-facing name lookups: the
// detector registry's spec names and the matrix-profile --mp-isa
// values both reject unknown names with a nearest-candidate hint, and
// both must suggest with the same plausibility rule so CLI errors feel
// uniform across subsystems.

#ifndef TSAD_COMMON_SUGGEST_H_
#define TSAD_COMMON_SUGGEST_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace tsad {

/// Classic O(|a|*|b|) Levenshtein distance.
std::size_t EditDistance(std::string_view a, std::string_view b);

/// The candidate closest to `name`, when plausibly a typo (edit
/// distance at most half the typed name's length, minimum 1 — a wholly
/// unrelated string gets no suggestion). Lowest distance wins; ties
/// break to candidate order. Returns "" when nothing is plausible.
std::string SuggestClosest(std::string_view name,
                           const std::vector<std::string>& candidates);

}  // namespace tsad

#endif  // TSAD_COMMON_SUGGEST_H_
