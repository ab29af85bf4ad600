// Property-based testing: random documents × random path queries, with the
// navigational evaluator as the oracle. Every strategy (BNLJ always;
// pipelined + merged scan on non-recursive documents; TwigStack when the
// query is in its class) must return the oracle's node set.

#include <gtest/gtest.h>

#include "baseline/navigational.h"
#include "engine/engine.h"
#include "exec/twig_semijoin.h"
#include "exec/twigstack.h"
#include "opt/planner.h"
#include "pattern/builder.h"
#include "util/rng.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xpath/parser.h"

namespace blossomtree {
namespace {

/// Random tree generator: small tag alphabet to force recursion and dense
/// matches; some nodes carry text for value predicates.
std::unique_ptr<xml::Document> RandomDoc(Rng* rng, size_t target_nodes) {
  static const char* kTags[] = {"a", "b", "c", "d", "e"};
  auto doc = std::make_unique<xml::Document>();
  size_t budget = target_nodes;
  std::function<void(uint32_t)> emit = [&](uint32_t depth) {
    if (budget == 0) return;
    --budget;
    doc->BeginElement(kTags[rng->Uniform(5)]);
    if (rng->Chance(0.2)) {
      doc->AddText(std::to_string(rng->Uniform(4)));
    }
    if (depth < 12) {
      size_t fanout = rng->Uniform(4);  // 0..3 children.
      for (size_t i = 0; i < fanout && budget > 0; ++i) emit(depth + 1);
    }
    doc->EndElement();
  };
  doc->BeginElement("r");
  while (budget > 0) emit(1);
  doc->EndElement();
  EXPECT_TRUE(doc->Finish().ok());
  return doc;
}

/// Random path query over the same alphabet: 1-4 steps, mixed axes,
/// occasional predicates (existence, value, position).
std::string RandomQuery(Rng* rng) {
  static const char* kTags[] = {"a", "b", "c", "d", "e", "r", "*"};
  std::string q;
  size_t steps = 1 + rng->Uniform(4);
  for (size_t i = 0; i < steps; ++i) {
    q += (i == 0 || rng->Chance(0.6)) ? "//" : "/";
    q += kTags[rng->Uniform(7)];
    if (rng->Chance(0.3)) {
      double r = rng->NextDouble();
      if (r < 0.5) {
        q += std::string("[") + (rng->Chance(0.5) ? "//" : "") +
             kTags[rng->Uniform(6)] + "]";
      } else if (r < 0.8) {
        q += std::string("[. = ") + std::to_string(rng->Uniform(4)) + "]";
      } else {
        q += std::string("[") + std::to_string(1 + rng->Uniform(3)) + "]";
      }
    }
  }
  return q;
}

class PropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PropertyTest, RandomQueriesAgreeWithOracle) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  auto doc = RandomDoc(&rng, 120 + rng.Uniform(150));
  for (int qi = 0; qi < 12; ++qi) {
    std::string query = RandomQuery(&rng);
    SCOPED_TRACE("seed=" + std::to_string(GetParam()) + " query=" + query +
                 " doc=" + xml::Serialize(*doc).substr(0, 400));
    auto path = xpath::ParsePath(query);
    ASSERT_TRUE(path.ok()) << path.status().ToString();
    auto tree = pattern::BuildFromPath(*path);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();

    baseline::NavigationalEvaluator nav(doc.get());
    auto oracle = nav.EvaluatePath(*path);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

    {
      opt::PlanOptions o;
      o.strategy = opt::JoinStrategy::kBoundedNestedLoop;
      auto got = opt::EvaluatePathQuery(doc.get(), &*tree, o);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, *oracle) << "BNLJ";
    }
    {
      auto got = opt::EvaluatePathQuery(doc.get(), &*tree);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, *oracle) << "auto";
    }
    if (!doc->IsRecursive()) {
      opt::PlanOptions o;
      o.strategy = opt::JoinStrategy::kPipelined;
      o.merge_nok_scans = true;
      auto got = opt::EvaluatePathQuery(doc.get(), &*tree, o);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, *oracle) << "PL+merged";
    }
    {
      exec::TwigStack ts(doc.get(), &*tree);
      std::vector<xml::NodeId> got;
      Status st = ts.Run(tree->VertexOfVariable("result"), &got);
      if (st.ok()) {
        EXPECT_EQ(got, *oracle) << "TwigStack";
      } else {
        EXPECT_EQ(st.code(), StatusCode::kUnsupported);
      }
    }
    {
      exec::TwigSemijoin sj(doc.get(), &*tree);
      std::vector<xml::NodeId> got;
      Status st = sj.Run(tree->VertexOfVariable("result"), &got);
      if (st.ok()) {
        EXPECT_EQ(got, *oracle) << "TwigSemijoin";
      } else {
        EXPECT_EQ(st.code(), StatusCode::kUnsupported);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest, ::testing::Range(0, 20));

/// Random FLWOR queries: for/let bindings over random paths with simple
/// where-clauses — BlossomTree engine vs the navigational baseline.
class FlworPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(FlworPropertyTest, RandomFlworsAgree) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 7);
  auto doc = RandomDoc(&rng, 60 + rng.Uniform(60));
  static const char* kTags[] = {"a", "b", "c", "d", "e"};
  for (int qi = 0; qi < 6; ++qi) {
    std::string t1 = kTags[rng.Uniform(5)];
    std::string t2 = kTags[rng.Uniform(5)];
    std::string t3 = kTags[rng.Uniform(5)];
    std::string query;
    double shape = rng.NextDouble();
    if (shape < 0.35) {
      query = "for $x in //" + t1 + " let $y := $x/" + t2 +
              " return <o>{ $y }</o>";
    } else if (shape < 0.7) {
      query = "for $x in //" + t1 + " for $y in $x//" + t2 +
              " return <o>{ $y }</o>";
    } else {
      query = "for $x in //" + t1 + ", $y in //" + t2 +
              " where $x << $y and deep-equal($x/" + t3 + ", $y/" + t3 +
              ") return <p/>";
    }
    SCOPED_TRACE("seed=" + std::to_string(GetParam()) + " query=" + query);
    engine::BlossomTreeEngine engine(doc.get());
    baseline::NavigationalEvaluator nav(doc.get());
    auto r1 = engine.EvaluateQuery(query);
    auto r2 = nav.EvaluateQuery(query);
    ASSERT_TRUE(r1.ok()) << r1.status().ToString();
    ASSERT_TRUE(r2.ok()) << r2.status().ToString();
    EXPECT_EQ(*r1, *r2);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlworPropertyTest, ::testing::Range(0, 12));

/// Fuzz-lite robustness: byte-mutated XML never crashes the parser, and
/// whatever still parses serializes to a re-parsable document.
class RobustnessTest : public ::testing::TestWithParam<int> {};

TEST_P(RobustnessTest, MutatedXmlNeverCrashes) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31337 + 5);
  auto doc = RandomDoc(&rng, 60);
  std::string text = xml::Serialize(*doc);
  for (int i = 0; i < 60; ++i) {
    std::string mutated = text;
    size_t pos = rng.Uniform(mutated.size());
    double r = rng.NextDouble();
    if (r < 0.4) {
      mutated[pos] = static_cast<char>(rng.Uniform(256));
    } else if (r < 0.7) {
      mutated.erase(pos, 1 + rng.Uniform(4));
    } else {
      mutated.insert(pos, std::string(1 + rng.Uniform(3),
                                      static_cast<char>(rng.Uniform(128))));
    }
    auto parsed = xml::ParseDocument(mutated);
    if (parsed.ok()) {
      std::string again = xml::Serialize(**parsed);
      auto reparsed = xml::ParseDocument(again);
      EXPECT_TRUE(reparsed.ok())
          << "serialize produced unparsable output: " << again;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RobustnessTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace blossomtree
