// Experiment E1 (paper §III-B): "since symmetric encryption methods use
// simpler operations, they have the advantage of running faster in comparison
// to other schemes."
//
// Measures encrypt and decrypt latency per ACL scheme across payload sizes.
// Expected shape: symmetric << hybrid < public-key/IBBE < CP-ABE, with the
// asymmetric schemes' costs independent of payload (hybrid) or scaling with
// members (naive public-key).
//
// One benchkit scenario per scheme; each sweeps payload sizes and records
// `encrypt_us.<payload>` / `decrypt_us.<payload>` params in the JSON output.
// `--smoke` runs the 256-byte point once per scheme.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "dosn/benchkit/benchkit.hpp"
#include "dosn/privacy/abe_acl.hpp"
#include "dosn/privacy/hybrid_acl.hpp"
#include "dosn/privacy/ibbe_acl.hpp"
#include "dosn/privacy/publickey_acl.hpp"
#include "dosn/privacy/symmetric_acl.hpp"

namespace {

using namespace dosn;
using benchkit::ScenarioContext;

constexpr std::size_t kGroupMembers = 8;

const pkcrypto::DlogGroup& benchGroup() {
  return pkcrypto::DlogGroup::cached(512);
}

enum class Scheme { kSymmetric, kPublicKey, kAbe, kIbbe, kHybridPk, kHybridAbe };

std::unique_ptr<privacy::AccessController> makeAcl(Scheme scheme,
                                                   util::Rng& rng) {
  switch (scheme) {
    case Scheme::kSymmetric:
      return std::make_unique<privacy::SymmetricAcl>(rng);
    case Scheme::kPublicKey:
      return std::make_unique<privacy::PublicKeyAcl>(benchGroup(), rng);
    case Scheme::kAbe:
      return std::make_unique<privacy::AbeAcl>(benchGroup(), rng);
    case Scheme::kIbbe:
      return std::make_unique<privacy::IbbeAcl>(benchGroup(), rng);
    case Scheme::kHybridPk:
      return std::make_unique<privacy::HybridAcl>(benchGroup(), rng,
                                                  privacy::WrapScheme::kPublicKey);
    case Scheme::kHybridAbe:
      return std::make_unique<privacy::HybridAcl>(benchGroup(), rng,
                                                  privacy::WrapScheme::kCpAbe);
  }
  return nullptr;
}

bool gHeaderPrinted = false;

void runScheme(ScenarioContext& ctx, const char* label, Scheme scheme) {
  util::Rng rng(ctx.seed());
  auto acl = makeAcl(scheme, rng);
  acl->createGroup("g");
  for (std::size_t i = 0; i < kGroupMembers; ++i) {
    acl->addMember("g", "user" + std::to_string(i));
  }
  const std::vector<std::size_t> payloads =
      ctx.smoke() ? std::vector<std::size_t>{256}
                  : std::vector<std::size_t>{256, 4096, 65536};
  const std::size_t iters = ctx.smoke() ? 1 : 10;
  ctx.param("members", static_cast<double>(kGroupMembers));
  ctx.counter("iters", iters);

  if (ctx.printing() && !gHeaderPrinted) {
    gHeaderPrinted = true;
    std::printf("E1: ACL encrypt/decrypt latency, %zu-member group (us/op)\n",
                kGroupMembers);
    std::printf("  %-12s %9s %12s %12s\n", "scheme", "payload", "encrypt",
                "decrypt");
  }
  for (const std::size_t payloadBytes : payloads) {
    const util::Bytes payload(payloadBytes, 0x5a);
    acl->encrypt("g", payload, rng);  // untimed; keeps the seeded draws
    std::vector<privacy::Envelope> envs;
    envs.reserve(iters);
    benchkit::Timer timer;
    for (std::size_t i = 0; i < iters; ++i) {
      envs.push_back(acl->encrypt("g", payload, rng));
    }
    const double encUs = timer.ms() * 1000.0 / static_cast<double>(iters);
    // Each envelope is decrypted once, so every decrypt pays its own key
    // unwrap (a controller may memoize unwraps it has already done).
    timer.reset();
    for (const privacy::Envelope& env : envs) {
      const auto plain = acl->decrypt("user3", env);
      ctx.require(plain.has_value() && *plain == payload,
                  "decrypt round-trip failed");
    }
    const double decUs = timer.ms() * 1000.0 / static_cast<double>(iters);
    const std::string suffix = "." + std::to_string(payloadBytes);
    ctx.param("encrypt_us" + suffix, encUs);
    ctx.param("decrypt_us" + suffix, decUs);
    if (ctx.printing()) {
      std::printf("  %-12s %9zu %12.1f %12.1f\n", label, payloadBytes, encUs,
                  decUs);
    }
  }
}

}  // namespace

BENCH_SCENARIO(e1_symmetric, {.hot = true}) {
  runScheme(ctx, "symmetric", Scheme::kSymmetric);
}

BENCH_SCENARIO(e1_public_key) {
  runScheme(ctx, "public_key", Scheme::kPublicKey);
}

BENCH_SCENARIO(e1_cp_abe) { runScheme(ctx, "cp_abe", Scheme::kAbe); }

BENCH_SCENARIO(e1_ibbe) { runScheme(ctx, "ibbe", Scheme::kIbbe); }

BENCH_SCENARIO(e1_hybrid_pk, {.hot = true}) {
  runScheme(ctx, "hybrid_pk", Scheme::kHybridPk);
}

BENCH_SCENARIO(e1_hybrid_abe) {
  runScheme(ctx, "hybrid_abe", Scheme::kHybridAbe);
}

BENCHKIT_MAIN()
