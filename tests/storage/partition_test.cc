#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "datagen/datagen.h"
#include "storage/btsx2.h"
#include "storage/disk_store.h"
#include "storage/node_store.h"
#include "xml/parser.h"

namespace blossomtree {
namespace storage {
namespace {

std::unique_ptr<xml::Document> Doc(const char* text) {
  auto parsed = xml::ParseDocument(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed.MoveValue();
}

/// Every partitioning must tile [0, N-1] with contiguous ascending ranges.
void ExpectTiles(const xml::Document& doc,
                 const std::vector<NodeRange>& parts) {
  ASSERT_FALSE(parts.empty());
  EXPECT_EQ(parts.front().begin, 0u);
  EXPECT_EQ(parts.back().end, doc.NumNodes() - 1);
  for (size_t i = 1; i < parts.size(); ++i) {
    EXPECT_EQ(parts[i].begin, parts[i - 1].end + 1);
  }
}

/// Cuts must fall at top-level subtree boundaries: every partition start
/// (except node 0) is a child of the root.
void ExpectTopLevelCuts(const xml::Document& doc,
                        const std::vector<NodeRange>& parts) {
  for (size_t i = 1; i < parts.size(); ++i) {
    EXPECT_EQ(doc.Parent(parts[i].begin), doc.Root())
        << "partition " << i << " starts mid-subtree";
  }
}

TEST(PartitionTest, EmptyDocument) {
  xml::Document doc;
  ASSERT_TRUE(doc.Finish().ok());
  EXPECT_TRUE(PartitionSubtrees(doc, 4).empty());
}

TEST(PartitionTest, SingleNode) {
  auto doc = Doc("<a/>");
  auto parts = PartitionSubtrees(*doc, 4);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], (NodeRange{0, 0}));
}

TEST(PartitionTest, OnePartitionIsFullRange) {
  auto doc = Doc("<a><b/><c/><d/></a>");
  auto parts = PartitionSubtrees(*doc, 1);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], (NodeRange{0, 3}));
}

TEST(PartitionTest, SplitsAtTopLevelChildren) {
  // Root + 4 children of 3 nodes each: 13 nodes total.
  auto doc = Doc(
      "<r>"
      "<a><x/><y/></a><b><x/><y/></b>"
      "<c><x/><y/></c><d><x/><y/></d>"
      "</r>");
  ASSERT_EQ(doc->NumNodes(), 13u);
  auto parts = PartitionSubtrees(*doc, 2);
  ASSERT_EQ(parts.size(), 2u);
  ExpectTiles(*doc, parts);
  ExpectTopLevelCuts(*doc, parts);
  // Balanced: 7 + 6 nodes.
  EXPECT_EQ(parts[0].size(), 7u);
  EXPECT_EQ(parts[1].size(), 6u);
}

TEST(PartitionTest, MorePartitionsThanChildren) {
  auto doc = Doc("<r><a/><b/></r>");
  auto parts = PartitionSubtrees(*doc, 8);
  EXPECT_LE(parts.size(), 3u);  // At most root-group + 2 subtrees.
  ExpectTiles(*doc, parts);
  ExpectTopLevelCuts(*doc, parts);
}

TEST(PartitionTest, SkewedSubtreesStayWhole) {
  // One huge first child: it cannot be split, so it dominates partition 1.
  auto doc = Doc(
      "<r><big><a/><b/><c/><d/><e/><f/><g/><h/></big><s1/><s2/><s3/></r>");
  auto parts = PartitionSubtrees(*doc, 4);
  ExpectTiles(*doc, parts);
  ExpectTopLevelCuts(*doc, parts);
  // The big subtree (nodes 1..9) is never cut.
  for (const NodeRange& p : parts) {
    EXPECT_FALSE(p.begin > 1 && p.begin <= 9);
  }
}

TEST(PartitionTest, GeneratedDatasetsTileCorrectly) {
  for (datagen::Dataset d : datagen::AllDatasets()) {
    datagen::GenOptions o;
    o.scale = 0.02;
    auto doc = datagen::GenerateDataset(d, o);
    for (size_t k : {2, 3, 4, 8, 16}) {
      auto parts = PartitionSubtrees(*doc, k);
      EXPECT_LE(parts.size(), k);
      ExpectTiles(*doc, parts);
      ExpectTopLevelCuts(*doc, parts);
    }
  }
}

TEST(PartitionTest, DiskStorePartitionMatchesDocumentPartition) {
  for (datagen::Dataset d : datagen::AllDatasets()) {
    datagen::GenOptions o;
    o.scale = 0.02;
    auto doc = datagen::GenerateDataset(d, o);
    std::string path = ::testing::TempDir() + "/bt_partition_" +
                       std::string(datagen::DatasetName(d)) + ".btsx2";
    ASSERT_TRUE(WriteBtsx2(*doc, path).ok());
    auto store = DiskStore::Open(path);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (size_t k : {1, 2, 4, 8}) {
      EXPECT_EQ((*store)->Partition(k), PartitionSubtrees(*doc, k))
          << datagen::DatasetName(d) << " k=" << k;
    }
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace storage
}  // namespace blossomtree
