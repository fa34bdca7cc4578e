// Tests for the core module: the scheme registry and the Table I generator.
#include <gtest/gtest.h>

#include "dosn/core/registry.hpp"
#include "dosn/core/table1.hpp"

namespace dosn::core {
namespace {

TEST(Registry, CoversAllTableOneRows) {
  const auto& registry = schemeRegistry();
  // The paper's Table I has 13 rows: 6 privacy, 3 integrity, 4 search.
  EXPECT_EQ(registry.size(), 13u);
  std::size_t privacy = 0;
  std::size_t integrity = 0;
  std::size_t search = 0;
  for (const SchemeInfo& info : registry) {
    switch (info.category) {
      case Category::kDataPrivacy: ++privacy; break;
      case Category::kDataIntegrity: ++integrity; break;
      case Category::kSecureSocialSearch: ++search; break;
    }
    EXPECT_FALSE(info.aspect.empty());
    EXPECT_FALSE(info.module.empty());
    EXPECT_FALSE(info.detail.empty());
  }
  EXPECT_EQ(privacy, 6u);
  EXPECT_EQ(integrity, 3u);
  EXPECT_EQ(search, 4u);
}

TEST(Registry, RowsMatchPaperLabels) {
  const auto& registry = schemeRegistry();
  const std::vector<std::string> expected = {
      "Information substitution",
      "Symmetric key encryption",
      "Public key encryption",
      "Attribute based encryption",
      "Identity based broadcast encryption",
      "Hybrid encryption",
      "Integrity of data owner and data content",
      "Historical integrity",
      "Integrity of data relations",
      "Content privacy",
      "Privacy of searcher",
      "Privacy of searched data owner",
      "Trusted search result",
  };
  ASSERT_EQ(registry.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(registry[i].aspect, expected[i]) << "row " << i;
  }
}

TEST(Table1, RenderContainsEveryRowAndCategory) {
  const std::string table = renderTable1();
  for (const SchemeInfo& info : schemeRegistry()) {
    EXPECT_NE(table.find(info.aspect), std::string::npos) << info.aspect;
  }
  EXPECT_NE(table.find("Data privacy"), std::string::npos);
  EXPECT_NE(table.find("Data integrity"), std::string::npos);
  EXPECT_NE(table.find("Secure Social Search"), std::string::npos);
  EXPECT_NE(table.find("TABLE I"), std::string::npos);
}

TEST(Table1, InventoryListsModules) {
  const std::string inventory = renderImplementationInventory();
  EXPECT_NE(inventory.find("dosn/privacy/symmetric_acl"), std::string::npos);
  EXPECT_NE(inventory.find("dosn/search/trust_rank"), std::string::npos);
}

}  // namespace
}  // namespace dosn::core
