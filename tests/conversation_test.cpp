#include "twitter/conversation.hpp"

#include <gtest/gtest.h>

#include <set>

#include "algs/connected_components.hpp"
#include "twitter/corpus_gen.hpp"
#include "twitter/datasets.hpp"

namespace graphct::twitter {
namespace {

Tweet tw(std::int64_t id, const std::string& author, const std::string& text) {
  return Tweet{id, author, text, id};
}

MentionGraph build(std::initializer_list<Tweet> tweets) {
  MentionGraphBuilder b;
  for (const auto& t : tweets) b.add(t);
  return std::move(b).build();
}

// A broadcast star (fans citing a hub) with one embedded conversation pair.
MentionGraph broadcast_with_conversation() {
  MentionGraphBuilder b;
  std::int64_t id = 1;
  for (int f = 0; f < 10; ++f) {
    b.add(tw(id++, "fan" + std::to_string(f), "RT @hub the news"));
  }
  b.add(tw(id++, "alice", "what do you think @bob"));
  b.add(tw(id++, "bob", "@alice I think so"));
  return std::move(b).build();
}

TEST(SubcommunityTest, MutualFilterStripsBroadcast) {
  const auto mg = broadcast_with_conversation();
  const auto r = subcommunity_filter(mg);
  // 13 users total (10 fans + hub + alice + bob).
  EXPECT_EQ(r.original_vertices, 13);
  // Only the reciprocated alice<->bob pair survives.
  EXPECT_EQ(r.mutual_vertices, 2);
  EXPECT_EQ(r.mutual_edges, 1);
  EXPECT_EQ(r.mutual_lwcc_vertices, 2);
  EXPECT_GT(r.reduction_factor, 6.0);
}

TEST(SubcommunityTest, OrigIdsPointIntoMentionGraph) {
  const auto mg = broadcast_with_conversation();
  const auto r = subcommunity_filter(mg);
  std::set<std::string> names;
  for (vid v : r.mutual.orig_ids) {
    names.insert(mg.users[static_cast<std::size_t>(v)]);
  }
  EXPECT_EQ(names, (std::set<std::string>{"alice", "bob"}));
  // Composed relabeling for the LWCC too.
  std::set<std::string> lwcc_names;
  for (vid v : r.mutual_lwcc.orig_ids) {
    lwcc_names.insert(mg.users[static_cast<std::size_t>(v)]);
  }
  EXPECT_EQ(lwcc_names, names);
}

TEST(SubcommunityTest, NoConversationsMeansEmptyMutualGraph) {
  const auto mg = build({tw(1, "a", "@hub"), tw(2, "b", "@hub")});
  const auto r = subcommunity_filter(mg);
  EXPECT_EQ(r.mutual_vertices, 0);
  EXPECT_EQ(r.mutual_lwcc_vertices, 0);
  EXPECT_DOUBLE_EQ(r.reduction_factor, 3.0);  // degenerate: reports original
}

TEST(SubcommunityTest, LwccOfOriginalComputed) {
  const auto mg = build({tw(1, "a", "@b"), tw(2, "c", "@d"), tw(3, "b", "@e")});
  const auto r = subcommunity_filter(mg);
  EXPECT_EQ(r.original_vertices, 5);
  EXPECT_EQ(r.lwcc_vertices, 3);  // a-b-e
  EXPECT_EQ(r.lwcc_edges, 2);
}

// The filter counts the original graph and its LWCC from the directed
// rows; the counts must be those of the undirected view and of the LWCC
// extracted from it.
void expect_counts_of_undirected_view(const MentionGraph& mg) {
  const auto r = subcommunity_filter(mg);
  const CsrGraph und = mg.undirected();
  const Subgraph lwcc = largest_component(und);
  EXPECT_EQ(r.original_vertices, und.num_vertices());
  EXPECT_EQ(r.original_edges, und.num_edges());
  EXPECT_EQ(r.lwcc_vertices, lwcc.graph.num_vertices());
  EXPECT_EQ(r.lwcc_edges, lwcc.graph.num_edges());
}

TEST(SubcommunityTest, CountsEqualTheUndirectedViewAndItsLwcc) {
  for (const char* preset : {"atlflood", "h1n1"}) {
    MentionGraphBuilder b;
    for (const auto& t : generate_corpus(dataset_preset(preset).corpus)) {
      b.add(t);
    }
    SCOPED_TRACE(preset);
    expect_counts_of_undirected_view(std::move(b).build());
  }
  // Ids a..h follow first occurrence. b->a and h->g are each counted with
  // their reverse; e->a runs from a higher id to a lower one with no
  // reverse; c and g refer to themselves; d and z mention nobody.
  const auto mg = build({tw(1, "a", "@b"), tw(2, "b", "@a"), tw(3, "c", "@c"),
                         tw(4, "d", "no mentions"), tw(5, "e", "@a @f"),
                         tw(6, "g", "@g @h"), tw(7, "h", "@g"),
                         tw(8, "z", "plain")});
  expect_counts_of_undirected_view(mg);
  const auto r = subcommunity_filter(mg);
  EXPECT_EQ(r.original_vertices, 9);
  EXPECT_EQ(r.original_edges, 6);  // a-b, c-c, a-e, e-f, g-g, g-h
  EXPECT_EQ(r.lwcc_vertices, 4);   // a, b, e, f
  EXPECT_EQ(r.lwcc_edges, 3);
}

// An empty corpus has no largest component to extract; the counts read 0
// instead of the extraction's out-of-range error.
TEST(SubcommunityTest, EmptyMentionGraphCountsZero) {
  const auto r = subcommunity_filter(build({}));
  EXPECT_EQ(r.original_vertices, 0);
  EXPECT_EQ(r.original_edges, 0);
  EXPECT_EQ(r.lwcc_vertices, 0);
  EXPECT_EQ(r.lwcc_edges, 0);
  EXPECT_EQ(r.mutual_vertices, 0);
}

TEST(SubcommunityTest, SelfReferenceIsNotAConversation) {
  const auto mg = build({tw(1, "echo", "@echo"), tw(2, "a", "@b"), tw(3, "b", "@a")});
  const auto r = subcommunity_filter(mg);
  EXPECT_EQ(r.mutual_vertices, 2);  // only a<->b
}

TEST(SubcommunityTest, TwoConversationClustersLwccPicksLarger) {
  const auto mg = build({
      tw(1, "a", "@b"), tw(2, "b", "@a"),            // pair
      tw(3, "x", "@y"), tw(4, "y", "@x"),            // triangle x-y-z
      tw(5, "y", "@z"), tw(6, "z", "@y"),
      tw(7, "z", "@x"), tw(8, "x", "@z"),
  });
  const auto r = subcommunity_filter(mg);
  EXPECT_EQ(r.mutual_vertices, 5);
  EXPECT_EQ(r.mutual_lwcc_vertices, 3);
  EXPECT_EQ(r.mutual_lwcc_edges, 3);
}

TEST(RankUsersTest, HubDominatesBroadcastGraph) {
  const auto mg = broadcast_with_conversation();
  const auto ranked = rank_users_by_betweenness(mg, 3);
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].name, "hub");
  EXPECT_GT(ranked[0].score, 0.0);
  EXPECT_GE(ranked[0].score, ranked[1].score);
  EXPECT_GE(ranked[1].score, ranked[2].score);
}

TEST(RankUsersTest, CountClamps) {
  const auto mg = build({tw(1, "a", "@b")});
  const auto ranked = rank_users_by_betweenness(mg, 100);
  EXPECT_EQ(ranked.size(), 2u);
}

TEST(RankUsersTest, VertexIdsMatchNames) {
  const auto mg = broadcast_with_conversation();
  for (const auto& ru : rank_users_by_betweenness(mg, 5)) {
    EXPECT_EQ(mg.users[static_cast<std::size_t>(ru.vertex)], ru.name);
  }
}

}  // namespace
}  // namespace graphct::twitter
