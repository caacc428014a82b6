#include "datagen/dblp.h"

#include <algorithm>
#include <memory>

#include "datagen/words.h"

namespace hopi::datagen {

namespace {

std::string PubName(size_t index) {
  return "pub" + std::to_string(index) + ".xml";
}

}  // namespace

xml::Document GenerateDblpDocument(const DblpConfig& config, size_t index,
                                   Rng* rng) {
  // Element mix modeled on DBLP inproceedings records: the paper's subset
  // averaged ~27 elements per publication.
  auto root = std::make_unique<xml::Element>("inproceedings");
  root->AddAttribute("id", "pub" + std::to_string(index));
  root->AddAttribute("key", "conf/gen/" + std::to_string(index));

  size_t num_authors = 1 + rng->NextBounded(4);
  for (size_t a = 0; a < num_authors; ++a) {
    auto* author = root->AddChild(std::make_unique<xml::Element>("author"));
    author->AddAttribute("id", std::string("a").append(std::to_string(a)));
    author->AppendText(RandomAuthorName(rng));
  }
  auto* title = root->AddChild(std::make_unique<xml::Element>("title"));
  title->AppendText(RandomWords(rng, 4 + rng->NextBounded(6)));
  root->AddChild(std::make_unique<xml::Element>("pages"))
      ->AppendText(std::to_string(rng->NextBounded(400)) + "-" +
                   std::to_string(400 + rng->NextBounded(20)));
  root->AddChild(std::make_unique<xml::Element>("year"))
      ->AppendText(std::to_string(1985 + rng->NextBounded(20)));
  root->AddChild(std::make_unique<xml::Element>("booktitle"))
      ->AppendText(RandomWords(rng, 2));
  root->AddChild(std::make_unique<xml::Element>("ee"))
      ->AppendText("db/conf/gen/" + std::to_string(index));

  // Abstract with a few sentence elements to reach DBLP-like element
  // counts and give the ranking examples some depth.
  auto* abstract = root->AddChild(std::make_unique<xml::Element>("abstract"));
  size_t sentences = 3 + rng->NextBounded(5);
  for (size_t s = 0; s < sentences; ++s) {
    auto* sent = abstract->AddChild(std::make_unique<xml::Element>("sentence"));
    sent->AppendText(RandomWords(rng, 6 + rng->NextBounded(8)));
  }

  // Citations. Target selection is Zipf over publication rank so early
  // ("classic") publications attract the bulk of citations. Mostly
  // backward; a small fraction points forward creating doc-level cycles.
  size_t num_cites = 0;
  {
    // Geometric-ish around the mean: 0..2*mean uniform keeps it simple and
    // gives variance without heavy tails on the *out*-degree.
    uint64_t cap = static_cast<uint64_t>(2.0 * config.mean_citations + 0.5);
    num_cites = cap == 0 ? 0 : rng->NextBounded(cap + 1);
  }
  std::vector<size_t> targets;
  for (size_t citation = 0; citation < num_cites; ++citation) {
    size_t target;
    if (index > 0 && !rng->NextBernoulli(config.forward_cite_fraction)) {
      target = rng->NextZipf(index, config.zipf_exponent);  // in [0, index)
    } else if (index + 1 < config.num_docs) {
      target = index + 1 + rng->NextBounded(config.num_docs - index - 1);
    } else {
      continue;
    }
    if (std::find(targets.begin(), targets.end(), target) != targets.end()) {
      continue;  // no duplicate citations
    }
    targets.push_back(target);
    auto* cite = root->AddChild(std::make_unique<xml::Element>("cite"));
    cite->AddAttribute("xlink:href", PubName(target));
    cite->AppendText(
        std::string("[").append(std::to_string(targets.size())) + "]");
  }

  // Occasional intra-document cross reference: a footnote pointing at an
  // author anchor.
  if (rng->NextBernoulli(config.intra_link_prob)) {
    auto* footnote = root->AddChild(std::make_unique<xml::Element>("footnote"));
    footnote->AddAttribute(
        "idref",
        std::string("a").append(std::to_string(rng->NextBounded(num_authors))));
    footnote->AppendText(RandomWords(rng, 3));
  }

  xml::Document doc;
  doc.name = PubName(index);
  doc.root = std::move(root);
  return doc;
}

Result<collection::IngestReport> GenerateDblpCollection(
    const DblpConfig& config, collection::Collection* out) {
  Rng rng(config.seed);
  collection::Ingestor ingestor(out);
  for (size_t i = 0; i < config.num_docs; ++i) {
    xml::Document doc = GenerateDblpDocument(config, i, &rng);
    auto id = ingestor.Ingest(doc);
    if (!id.ok()) return id.status();
  }
  return ingestor.report();
}

}  // namespace hopi::datagen
