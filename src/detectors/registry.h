// Detector registry: constructs any of the library's detectors from a
// textual spec like "discord:m=128" or "telemanom:ar=32,alpha=0.2".
// Used by the CLI tool and handy for experiment configs.
//
// Spec grammar:  <name>[:key=value[,key=value]...]
// Unknown keys and non-finite values are InvalidArgument, as are size
// parameters (windows, orders, counts) that are negative, fractional or
// too large for std::size_t. An unknown name is NotFound and the
// message suggests the nearest registered name by edit distance when
// the typo is plausible ("did you mean 'zscore'?"). Every parameter has
// the detector's documented default.
//
//   discord        m (window, default 128)
//   semisup        m (default 128)
//   streaming      m (default 128, must be >= 3),
//                  burnin (default 0, which means "4*m" — see
//                  StreamingDiscordDetector)
//   merlin         min (default 48), max (default 96) — MERLIN
//                  multi-length discord sweep over [min, max]
//   telemanom      ar (default 32), alpha (default 0.05), ridge (1e-3)
//   zscore         w (default 64)
//   cusum          drift (default 0.5), reset (default 0 = off)
//   ewma           lambda (default 0.2)
//   pagehinkley    delta (default 0.05)
//   maxdiff        -
//   constantrun    min (default 3)
//   lastpoint      -
//   oneliner       abs (0/1, default 1), u (0/1, default 0),
//                  k (default 5), c (default 0), b (default 0)
//
// One registered name uses a POSITIONAL grammar instead of key=value:
//
//   floss          floss[:<window>[:<buffer>]] — FLOSS regime-change
//                  scoring over the bounded-memory streaming MPX
//                  kernel (window default 64, >= 3; buffer default
//                  kDefaultFlossBufferCap = 4096, must be >= 4*window).
//                  See detectors/floss.h.
//
// Any spec may be wrapped as `resilient:<spec>` (e.g.
// `resilient:discord:m=128`) to get the hardened pipeline of
// robustness/resilient.h: input sanitization, score sanitization, one
// retry with a simplified configuration (see SimplifyDetectorSpec) and
// graceful degradation to a moving z-score fallback.

#ifndef TSAD_DETECTORS_REGISTRY_H_
#define TSAD_DETECTORS_REGISTRY_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "detectors/detector.h"

namespace tsad {

/// Builds a detector from a spec string (see grammar above).
Result<std::unique_ptr<AnomalyDetector>> MakeDetector(const std::string& spec);

/// The registered detector names, for --help output.
std::vector<std::string> RegisteredDetectorNames();

/// The registered prefix grammars (specs that wrap or extend the flat
/// name grammar), as human-readable forms like "resilient:<spec>" —
/// listed by `tsad list` and in unknown-detector errors so prefixed
/// specs are discoverable too.
std::vector<std::string> RegisteredDetectorPrefixes();

/// The spec wrapped by a `resilient:<spec>` spec, or nullopt when
/// `spec` does not carry the prefix.
std::optional<std::string> ResilientInnerSpec(std::string_view spec);

/// A cheaper configuration of the same detector, used as the
/// retry-once stage of the resilient wrapper: window-like parameters
/// (m, w, ar, max) are halved down to sane floors. Returns the spec
/// unchanged for detectors with nothing to simplify.
std::string SimplifyDetectorSpec(const std::string& spec);

}  // namespace tsad

#endif  // TSAD_DETECTORS_REGISTRY_H_
