// Quickstart: three users, a friends circle, an encrypted post on a DHT,
// verified integrity, and a revocation — the library's core loop in ~80
// lines. Exits non-zero unless every outcome it prints holds.
//
//   ./quickstart
#include <cstdio>

#include "dosn/app/microblog.hpp"
#include "dosn/privacy/hybrid_acl.hpp"

int main() {
  using namespace dosn;

  util::Rng rng(2026);
  const pkcrypto::DlogGroup& group = pkcrypto::DlogGroup::cached(512);
  sim::Simulator simulator;
  sim::Network network(simulator, sim::LatencyModel{5 * sim::kMillisecond, 0, 0.0},
                       rng);

  // Shared infrastructure: the out-of-band key registry and an access
  // controller (hybrid encryption: symmetric payload + per-member key wrap).
  social::IdentityRegistry registry;
  privacy::HybridAcl acl(group, rng, privacy::WrapScheme::kPublicKey);

  // Three user clients. Their own DHT nodes are the whole network, so each
  // wall is replicated on the other users' (untrusted) nodes.
  app::MicroblogNode alice(network, overlay::OverlayId::random(rng), group,
                           "alice", registry, acl, rng);
  app::MicroblogNode bob(network, overlay::OverlayId::random(rng), group, "bob",
                         registry, acl, rng);
  app::MicroblogNode eve(network, overlay::OverlayId::random(rng), group, "eve",
                         registry, acl, rng);
  const overlay::Contact seed{alice.dht().id(), alice.dht().addr()};
  bob.join(seed);
  eve.join(seed);
  simulator.run();

  // Fetches alice's wall from the DHT: verify the signed hash chain, then
  // decrypt as `reader`.
  auto readAlice = [&](app::MicroblogNode& reader) {
    app::FetchedTimeline seen;
    reader.fetchTimeline("alice",
                         [&](app::FetchedTimeline t) { seen = std::move(t); });
    simulator.run();
    return seen;
  };

  // Alice creates a circle and shares a post with Bob.
  alice.createCircle("friends");
  alice.addToCircle("friends", "bob");
  alice.publish("friends", "Hello from my decentralized wall!", /*now=*/1, rng);
  simulator.run();

  const app::FetchedTimeline bobView = readAlice(bob);
  const bool bobReads = bobView.posts.size() == 1;
  std::printf("bob reads:  %s\n",
              bobReads ? bobView.posts[0].text.c_str() : "(access denied)");

  // Eve is not in the circle: the chain verifies, the post does not decrypt.
  const app::FetchedTimeline eveView = readAlice(eve);
  const bool eveDenied = eveView.chainValid && eveView.posts.empty();
  std::printf("eve reads:  %s\n", eveDenied ? "(access denied)" : "BUG");

  // Integrity: the head signature and every chain entry verified.
  const bool verified = bobView.headValid && bobView.chainValid;
  std::printf("timeline verified: %s\n", verified ? "yes" : "NO");

  // Revocation: bob is removed; the retained history is re-encrypted.
  const auto report = alice.removeFromCircle("friends", "bob");
  std::printf("revocation re-encrypted %zu envelope(s)\n",
              report.reencryptedEnvelopes);
  const app::FetchedTimeline revokedView = readAlice(bob);
  const bool bobLockedOut = revokedView.chainValid && revokedView.posts.empty();
  std::printf("bob after revocation: %s\n",
              bobLockedOut ? "(access denied)" : "still reads (BUG)");
  return bobReads && verified && eveDenied && bobLockedOut ? 0 : 1;
}
