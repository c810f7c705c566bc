#include "core/rule_io.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "core/measures.h"
#include "util/file.h"
#include "util/interner.h"
#include "util/string_util.h"

namespace rulelink::core {
namespace {

// Segments may contain anything but tabs/newlines; escape those plus the
// escape character itself.
std::string EscapeField(std::string_view s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\t': out += "\\t"; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

util::Result<std::string> UnescapeField(std::string_view s) {
  std::string out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out.push_back(s[i]);
      continue;
    }
    if (i + 1 >= s.size()) {
      return util::InvalidArgumentError("dangling escape");
    }
    switch (s[++i]) {
      case '\\': out.push_back('\\'); break;
      case 't': out.push_back('\t'); break;
      case 'n': out.push_back('\n'); break;
      default:
        return util::InvalidArgumentError("unknown escape");
    }
  }
  return out;
}

}  // namespace

std::string WriteRules(const RuleSet& rules,
                       const ontology::Ontology& onto) {
  std::ostringstream os;
  os << "# rulelink classification rules v2\n"
     << "# property\tsegment\tclass\tpremise\tclass_count\tjoint\ttotal"
        "\tconfidence\tlift\n";
  for (const ClassificationRule& rule : rules.rules()) {
    os << EscapeField(rules.properties().name(rule.property)) << '\t'
       << EscapeField(rules.segment_text(rule)) << '\t'
       << EscapeField(onto.iri(rule.cls)) << '\t'
       << rule.counts.premise_count << '\t' << rule.counts.class_count
       << '\t' << rule.counts.joint_count << '\t' << rule.counts.total
       << '\t' << util::FormatDoubleRoundTrip(rule.confidence) << '\t'
       << util::FormatDoubleRoundTrip(rule.lift) << '\n';
  }
  return os.str();
}

util::Status WriteRulesToFile(const RuleSet& rules,
                              const ontology::Ontology& onto,
                              const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return util::NotFoundError("cannot open for writing: " + path);
  out << WriteRules(rules, onto);
  if (!out) return util::DataLossError("write failed: " + path);
  return util::OkStatus();
}

util::Result<RuleSet> ReadRules(const std::string& content,
                                const ontology::Ontology& onto) {
  PropertyCatalog properties;
  util::StringInterner segments;
  std::vector<ClassificationRule> rules;
  std::size_t line_no = 0;
  std::size_t start = 0;
  int version = 1;  // headerless files are read as v1
  while (start <= content.size()) {
    std::size_t end = content.find('\n', start);
    if (end == std::string::npos) end = content.size();
    ++line_no;
    const std::string_view raw(content.data() + start, end - start);
    start = end + 1;
    const std::string_view line = util::StripAsciiWhitespace(raw);
    if (line.empty() || line[0] == '#') {
      if (line == "# rulelink classification rules v2") version = 2;
      if (end == content.size()) break;
      continue;
    }
    const auto error = [&](const std::string& what) {
      return util::InvalidArgumentError(
          "rule file line " + std::to_string(line_no) + ": " + what);
    };
    const std::size_t expected_fields = version == 2 ? 9u : 7u;
    const auto fields = util::Split(line, '\t');
    if (fields.size() != expected_fields) {
      return error("expected " + std::to_string(expected_fields) +
                   " tab-separated fields, got " +
                   std::to_string(fields.size()));
    }
    auto property = UnescapeField(fields[0]);
    auto segment = UnescapeField(fields[1]);
    auto class_iri = UnescapeField(fields[2]);
    if (!property.ok() || !segment.ok() || !class_iri.ok()) {
      return error("bad escape sequence");
    }
    unsigned long long counts[4];
    for (int k = 0; k < 4; ++k) {
      if (!util::ParseUint64(fields[static_cast<std::size_t>(3 + k)],
                             &counts[k])) {
        return error("bad count field");
      }
    }
    const ontology::ClassId cls = onto.FindByIri(*class_iri);
    if (cls == ontology::kInvalidClassId) {
      return error("unknown class IRI " + *class_iri);
    }
    ClassificationRule rule;
    rule.property = properties.Intern(*property);
    rule.segment = segments.Intern(*segment);
    rule.cls = cls;
    rule.counts.premise_count = static_cast<std::size_t>(counts[0]);
    rule.counts.class_count = static_cast<std::size_t>(counts[1]);
    rule.counts.joint_count = static_cast<std::size_t>(counts[2]);
    rule.counts.total = static_cast<std::size_t>(counts[3]);
    if (!CountsAreConsistent(rule.counts)) {
      return error("inconsistent rule counts");
    }
    // Support is an exact division of the counts either way; v2 restores
    // confidence and lift bit-for-bit from the stored shortest-round-trip
    // doubles, v1 recomputes them.
    rule.ComputeMeasures();
    if (version == 2) {
      double confidence = 0.0;
      double lift = 0.0;
      if (!util::ParseDouble(fields[7], &confidence) ||
          !util::ParseDouble(fields[8], &lift)) {
        return error("bad measure field");
      }
      if (!(confidence >= 0.0 && confidence <= 1.0)) {
        return error("confidence out of [0, 1]");
      }
      if (!std::isfinite(lift) || lift < 0.0) {
        return error("negative or non-finite lift");
      }
      rule.confidence = confidence;
      rule.lift = lift;
    }
    rules.push_back(std::move(rule));
    if (end == content.size()) break;
  }
  return RuleSet(std::move(rules), std::move(properties), segments);
}

util::Result<RuleSet> ReadRulesFromFile(const std::string& path,
                                        const ontology::Ontology& onto) {
  RL_ASSIGN_OR_RETURN(const std::string content, util::ReadFile(path));
  return ReadRules(content, onto);
}

}  // namespace rulelink::core
