// A triple of interned term ids. Plain data; meaning comes from the graph's
// dictionary.
#ifndef RULELINK_RDF_TRIPLE_H_
#define RULELINK_RDF_TRIPLE_H_

#include "rdf/term.h"

namespace rulelink::rdf {

struct Triple {
  TermId subject = kInvalidTermId;
  TermId predicate = kInvalidTermId;
  TermId object = kInvalidTermId;

  friend bool operator==(const Triple& a, const Triple& b) {
    return a.subject == b.subject && a.predicate == b.predicate &&
           a.object == b.object;
  }
  friend bool operator<(const Triple& a, const Triple& b) {
    if (a.subject != b.subject) return a.subject < b.subject;
    if (a.predicate != b.predicate) return a.predicate < b.predicate;
    return a.object < b.object;
  }
};

}  // namespace rulelink::rdf

#endif  // RULELINK_RDF_TRIPLE_H_
