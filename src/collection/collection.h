// The XML collection model of the paper's Section 2.
//
// A collection X = (D, L) holds documents d1..dn and inter-document links
// L. Per document we keep the element-level tree T_E(d) (parent-child
// edges) and intra-document links L_I(d). Derived structures:
//   - the element-level graph G_E(X): all elements, tree edges + intra
//     links + inter links,
//   - the document-level graph G_D(X): documents, one edge (di, dj) per
//     linked document pair, weighted by element count (nodes) and link
//     count (edges).
//
// Element ids are dense uint32_t across the whole collection and remain
// stable under document removal (removed elements become isolated ids).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/digraph.h"
#include "util/result.h"

namespace hopi::collection {

using DocId = uint32_t;
inline constexpr DocId kInvalidDoc = UINT32_MAX;

/// Per-element metadata.
struct ElementInfo {
  DocId doc = kInvalidDoc;
  uint32_t tag = 0;        // interned tag id, see Collection::TagName
  NodeId parent = kInvalidNode;  // tree parent, kInvalidNode for roots
};

/// An element-level link (source element -> target element). Intra-document
/// when both endpoints share a document, inter-document otherwise.
struct Link {
  NodeId source;
  NodeId target;

  friend bool operator==(const Link& a, const Link& b) {
    return a.source == b.source && a.target == b.target;
  }
};

/// Mutable collection. Built programmatically (by the data generators or
/// the XML ingestion layer in builder.h) and mutated by the maintenance
/// paths (document insertion / removal).
class Collection {
 public:
  Collection() = default;

  // ---- construction ----

  /// Registers a new (empty) document and returns its id.
  DocId AddDocument(std::string name);

  /// Adds an element with tag `tag` to `doc`. `parent` is either an element
  /// of the same document or kInvalidNode for the document root.
  /// Adds the tree edge parent -> element to the element-level graph.
  NodeId AddElement(DocId doc, const std::string& tag,
                    NodeId parent = kInvalidNode);

  /// Adds a link between two existing elements (intra- or inter-document,
  /// decided by their documents). Idempotent per (source,target) pair.
  /// Returns false if the link already existed.
  bool AddLink(NodeId source, NodeId target);

  /// Removes a document: isolates all its elements in the element-level
  /// graph, drops its links (both directions) and its document-graph edges.
  /// The DocId and element NodeIds remain allocated but dead.
  hopi::Status RemoveDocument(DocId doc);

  /// Removes a single element-level link. Returns NotFound if absent.
  hopi::Status RemoveLink(NodeId source, NodeId target);

  // ---- element-level accessors ----

  const Digraph& ElementGraph() const { return element_graph_; }
  size_t NumElements() const { return elements_.size(); }

  DocId DocOf(NodeId element) const { return elements_[element].doc; }
  NodeId ParentOf(NodeId element) const { return elements_[element].parent; }
  uint32_t TagIdOf(NodeId element) const { return elements_[element].tag; }
  const std::string& TagName(uint32_t tag_id) const {
    return tag_names_[tag_id];
  }
  const std::string& TagOf(NodeId element) const {
    return tag_names_[elements_[element].tag];
  }
  /// Interned id for a tag name; kInvalidTag when never seen.
  static constexpr uint32_t kInvalidTag = UINT32_MAX;
  uint32_t FindTagId(const std::string& tag) const;

  // ---- document-level accessors ----

  size_t NumDocuments() const { return doc_names_.size(); }
  /// Number of live (non-removed) documents.
  size_t NumLiveDocuments() const { return live_docs_; }
  bool IsLive(DocId doc) const { return !removed_[doc]; }
  const std::string& DocName(DocId doc) const { return doc_names_[doc]; }
  Result<DocId> FindDocument(const std::string& name) const;

  const std::vector<NodeId>& ElementsOf(DocId doc) const {
    return doc_elements_[doc];
  }
  NodeId RootOf(DocId doc) const { return doc_roots_[doc]; }

  /// The document-level graph G_D(X). Node ids coincide with DocIds.
  const Digraph& DocumentGraph() const { return document_graph_; }

  /// Number of element-level links behind document edge (di, dj).
  uint32_t DocEdgeLinkCount(DocId di, DocId dj) const;

  // ---- links ----

  /// All links (intra + inter), unordered.
  const std::vector<Link>& Links() const { return links_; }
  /// Number of inter-document links (|L|).
  size_t NumInterLinks() const { return num_inter_links_; }
  /// Number of intra-document links (sum of |L_I(d)|).
  size_t NumIntraLinks() const { return links_.size() - num_inter_links_; }

  // ---- tree-derived statistics (paper Sec 4.3) ----

  /// Number of proper ancestors of `element` within its document tree
  /// (anc(x) in Fig. 5 — paper annotates 1-based counts including self;
  /// we return the count *including* the element itself to match Fig. 5).
  uint32_t TreeAncestorCount(NodeId element) const;

  /// Number of descendants of `element` within its document tree,
  /// including the element itself (matching Fig. 5's annotations).
  uint32_t TreeDescendantCount(NodeId element) const;

  /// Approximate serialized size in bytes (sum of tag lengths, markup
  /// overhead and link attributes) — used for Table 1's "size" column.
  uint64_t ApproximateSizeBytes() const;

 private:
  // element storage
  std::vector<ElementInfo> elements_;
  Digraph element_graph_;

  // tag interning
  std::vector<std::string> tag_names_;
  std::map<std::string, uint32_t> tag_ids_;

  // documents
  std::vector<std::string> doc_names_;
  std::map<std::string, DocId> doc_ids_;
  std::vector<std::vector<NodeId>> doc_elements_;
  std::vector<NodeId> doc_roots_;
  std::vector<bool> removed_;
  size_t live_docs_ = 0;

  // links
  std::vector<Link> links_;
  size_t num_inter_links_ = 0;

  // document-level graph; parallel map counts links per doc edge
  Digraph document_graph_;
  std::map<std::pair<DocId, DocId>, uint32_t> doc_edge_links_;

  // lazily computed subtree sizes (invalidated on structural change)
  mutable std::vector<uint32_t> subtree_size_cache_;
  mutable bool subtree_cache_valid_ = false;
  void InvalidateCaches() const { subtree_cache_valid_ = false; }
  void EnsureSubtreeCache() const;
};

}  // namespace hopi::collection
