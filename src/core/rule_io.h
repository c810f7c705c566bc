// Persistence for learnt rule sets: a line-oriented TSV format so a rule
// base learnt once from the expert links can be shipped with the catalog
// and reloaded when new provider documents arrive (§3's workflow).
//
// Format v2 (tab-separated, '#' comments, one rule per line):
//   property-IRI  segment  class-IRI  premise  class_count  joint  total
//   confidence  lift
// The two measure columns are shortest-round-trip doubles
// (util::FormatDoubleRoundTrip), so save -> load -> save is byte-identical
// and external tooling can consume the measures without recomputing them.
// Support is recomputed from the counts on load (an exact division).
//
// v1 files (7 columns, measures recomputed from the counts) still load;
// the version is taken from the "# rulelink classification rules vN"
// header line, defaulting to v1 when absent.
#ifndef RULELINK_CORE_RULE_IO_H_
#define RULELINK_CORE_RULE_IO_H_

#include <string>

#include "core/rule.h"
#include "ontology/ontology.h"
#include "util/status.h"

namespace rulelink::core {

// Serializes the rule set. Class ids are written as IRIs via `onto`.
std::string WriteRules(const RuleSet& rules, const ontology::Ontology& onto);
util::Status WriteRulesToFile(const RuleSet& rules,
                              const ontology::Ontology& onto,
                              const std::string& path);

// Parses a rule file. Class IRIs must resolve in `onto`; unknown IRIs,
// malformed lines, or inconsistent counts produce InvalidArgument with the
// line number.
util::Result<RuleSet> ReadRules(const std::string& content,
                                const ontology::Ontology& onto);
// ReadRules over the file at `path`, read by util::ReadFile (NotFound when
// it cannot be opened, InvalidArgument when it cannot be read).
util::Result<RuleSet> ReadRulesFromFile(const std::string& path,
                                        const ontology::Ontology& onto);

}  // namespace rulelink::core

#endif  // RULELINK_CORE_RULE_IO_H_
