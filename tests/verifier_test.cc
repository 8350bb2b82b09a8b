#include "core/verifier.h"

#include <gtest/gtest.h>

#include "graph/graph_builder.h"

namespace kpj {
namespace {

Graph Diamond() {
  GraphBuilder b(4);
  b.AddEdge(0, 1, 1);
  b.AddEdge(1, 3, 1);
  b.AddEdge(0, 2, 2);
  b.AddEdge(2, 3, 2);
  b.AddEdge(0, 3, 10);
  return b.Build();
}

KpjQuery QueryTo3(uint32_t k) {
  KpjQuery q;
  q.sources = {0};
  q.targets = {3};
  q.k = k;
  return q;
}

TEST(EnumerateTest, FindsAllThreePathsInOrder) {
  Graph g = Diamond();
  Result<std::vector<Path>> r = EnumerateTopKPaths(g, QueryTo3(10));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), 3u);
  EXPECT_EQ(r.value()[0].length, 2u);
  EXPECT_EQ(r.value()[1].length, 4u);
  EXPECT_EQ(r.value()[2].length, 10u);
}

TEST(EnumerateTest, RespectsK) {
  Graph g = Diamond();
  Result<std::vector<Path>> r = EnumerateTopKPaths(g, QueryTo3(2));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), 2u);
}

TEST(EnumerateTest, ExcludesTrivialPathWhenSourceIsTarget) {
  Graph g = Diamond();
  KpjQuery q;
  q.sources = {0};
  q.targets = {0, 3};
  q.k = 10;
  Result<std::vector<Path>> r = EnumerateTopKPaths(g, q);
  ASSERT_TRUE(r.ok());
  for (const Path& p : r.value()) {
    EXPECT_GE(p.nodes.size(), 2u);
  }
}

TEST(EnumerateTest, PathThroughOneTargetToAnother) {
  // 0 -> 1 -> 2 with both 1 and 2 targets: paths (0,1), (0,1,2).
  GraphBuilder b(3);
  b.AddEdge(0, 1, 1);
  b.AddEdge(1, 2, 1);
  Graph g = b.Build();
  KpjQuery q;
  q.sources = {0};
  q.targets = {1, 2};
  q.k = 10;
  Result<std::vector<Path>> r = EnumerateTopKPaths(g, q);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), 2u);
  EXPECT_EQ(r.value()[0].nodes, (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(r.value()[1].nodes, (std::vector<NodeId>{0, 1, 2}));
}

TEST(EnumerateTest, ExpansionBudgetEnforced) {
  // Dense-ish graph with tiny budget.
  GraphBuilder b(10);
  for (NodeId u = 0; u < 10; ++u) {
    for (NodeId v = 0; v < 10; ++v) {
      if (u != v) b.AddEdge(u, v, 1);
    }
  }
  Graph g = b.Build();
  KpjQuery q;
  q.sources = {0};
  q.targets = {9};
  q.k = 1000;
  Result<std::vector<Path>> r = EnumerateTopKPaths(g, q, /*max_expansions=*/50);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ValidateStructureTest, AcceptsCorrectAnswer) {
  Graph g = Diamond();
  std::vector<Path> paths = {{{0, 1, 3}, 2}, {{0, 2, 3}, 4}};
  EXPECT_TRUE(ValidateResultStructure(g, QueryTo3(5), paths).ok());
}

TEST(ValidateStructureTest, RejectsBadLength) {
  Graph g = Diamond();
  std::vector<Path> paths = {{{0, 1, 3}, 99}};
  EXPECT_FALSE(ValidateResultStructure(g, QueryTo3(5), paths).ok());
}

TEST(ValidateStructureTest, RejectsNonSimple) {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 1);
  b.AddEdge(1, 0, 1);
  b.AddEdge(0, 2, 1);
  Graph g = b.Build();
  KpjQuery q;
  q.sources = {0};
  q.targets = {2};
  q.k = 5;
  std::vector<Path> paths = {{{0, 1, 0, 2}, 3}};
  EXPECT_FALSE(ValidateResultStructure(g, q, paths).ok());
}

TEST(ValidateStructureTest, FailureMessagesNameThePathAndTheCheck) {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 1);
  b.AddEdge(1, 0, 1);
  b.AddEdge(0, 2, 1);
  Graph g = b.Build();
  KpjQuery q;
  q.sources = {0};
  q.targets = {2};
  q.k = 5;
  std::vector<Path> non_simple = {{{0, 2}, 1}, {{0, 1, 0, 2}, 3}};
  Status s = ValidateResultStructure(g, q, non_simple);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(s.message(), "path 1 (0 -> 1 -> 0 -> 2 (len 3)): not simple");

  std::vector<Path> bad_length = {{{0, 2}, 7}};
  EXPECT_EQ(ValidateResultStructure(g, q, bad_length).message(),
            "path 0 (0 -> 2 (len 7)): cached length 7 != recomputed 1");
}

TEST(ValidateStructureTest, RejectsWrongEndpoints) {
  Graph g = Diamond();
  std::vector<Path> starts_wrong = {{{1, 3}, 1}};
  EXPECT_FALSE(ValidateResultStructure(g, QueryTo3(5), starts_wrong).ok());
  std::vector<Path> ends_wrong = {{{0, 1}, 1}};
  EXPECT_FALSE(ValidateResultStructure(g, QueryTo3(5), ends_wrong).ok());
}

TEST(ValidateStructureTest, RejectsUnsortedDuplicatesAndOverflow) {
  Graph g = Diamond();
  std::vector<Path> unsorted = {{{0, 2, 3}, 4}, {{0, 1, 3}, 2}};
  EXPECT_FALSE(ValidateResultStructure(g, QueryTo3(5), unsorted).ok());
  std::vector<Path> dup = {{{0, 1, 3}, 2}, {{0, 1, 3}, 2}};
  EXPECT_FALSE(ValidateResultStructure(g, QueryTo3(5), dup).ok());
  std::vector<Path> too_many = {{{0, 1, 3}, 2}, {{0, 2, 3}, 4}};
  EXPECT_FALSE(ValidateResultStructure(g, QueryTo3(1), too_many).ok());
}

TEST(ValidateStructureTest, RejectsTrivialPath) {
  Graph g = Diamond();
  KpjQuery q;
  q.sources = {0};
  q.targets = {0};
  q.k = 5;
  std::vector<Path> trivial = {{{0}, 0}};
  EXPECT_FALSE(ValidateResultStructure(g, q, trivial).ok());
}

TEST(ValidateAgainstReferenceTest, DetectsMissingPath) {
  Graph g = Diamond();
  std::vector<Path> partial = {{{0, 1, 3}, 2}};  // Should be 3 paths for k=5.
  EXPECT_FALSE(ValidateAgainstReference(g, QueryTo3(5), partial).ok());
  std::vector<Path> full = {{{0, 1, 3}, 2}, {{0, 2, 3}, 4}, {{0, 3}, 10}};
  EXPECT_TRUE(ValidateAgainstReference(g, QueryTo3(5), full).ok());
}

}  // namespace
}  // namespace kpj
