// Compatibility alias: the retry policy moved down a layer into net/ (it
// now belongs to the shared RPC endpoint, not any single overlay). Existing
// overlay-facing code keeps spelling it overlay::RetryPolicy.
#pragma once

#include "dosn/net/retry.hpp"

namespace dosn::overlay {

using net::RetryPolicy;

}  // namespace dosn::overlay
