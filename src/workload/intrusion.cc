#include "workload/intrusion.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/string_util.h"
#include "workload/generator.h"

namespace rudolf {

namespace {

ConceptId MustAdd(Ontology* o, const std::string& name,
                  const std::vector<ConceptId>& parents) {
  auto r = o->AddConcept(name, parents);
  assert(r.ok());
  return r.ValueOrDie();
}

}  // namespace

std::unique_ptr<Ontology> BuildProtocolOntology() {
  auto o = std::make_unique<Ontology>("protocol", "Any protocol");
  ConceptId top = o->top();
  ConceptId tcp = MustAdd(o.get(), "TCP", {top});
  ConceptId udp = MustAdd(o.get(), "UDP", {top});
  ConceptId enc = MustAdd(o.get(), "Encrypted", {top});
  ConceptId plain = MustAdd(o.get(), "Plaintext", {top});
  MustAdd(o.get(), "HTTP", {tcp, plain});
  MustAdd(o.get(), "HTTPS", {tcp, enc});
  MustAdd(o.get(), "SSH", {tcp, enc});
  MustAdd(o.get(), "FTP", {tcp, plain});
  MustAdd(o.get(), "DNS", {udp, plain});
  MustAdd(o.get(), "NTP", {udp, plain});
  MustAdd(o.get(), "SNMP", {udp, plain});
  return o;
}

std::unique_ptr<Ontology> BuildAddressOntology(int subnets_per_zone) {
  auto o = std::make_unique<Ontology>("address", "Any host");
  ConceptId top = o->top();
  ConceptId internal = MustAdd(o.get(), "Internal", {top});
  ConceptId external = MustAdd(o.get(), "External", {top});
  const std::pair<const char*, ConceptId> zones[] = {
      {"DMZ", internal},     {"Office", internal},      {"Servers", internal},
      {"Partner", external}, {"Cloud", external},       {"KnownBotnet", external},
  };
  int zone_index = 0;
  for (const auto& [zone_name, parent] : zones) {
    ConceptId zone = MustAdd(o.get(), zone_name, {parent});
    for (int s = 0; s < subnets_per_zone; ++s) {
      MustAdd(o.get(),
              StringPrintf("10.%d.%d.0/24", zone_index, s + 1), {zone});
    }
    ++zone_index;
  }
  return o;
}

FlowSchema MakeFlowSchema(int subnets_per_zone) {
  FlowSchema fs;
  fs.protocol_ontology = BuildProtocolOntology();
  fs.address_ontology = BuildAddressOntology(subnets_per_zone);
  auto schema = std::make_shared<Schema>();
  Status st;
  st = schema->AddNumeric("hour");
  assert(st.ok());
  st = schema->AddNumeric("port");
  assert(st.ok());
  st = schema->AddNumeric("kbytes");
  assert(st.ok());
  st = schema->AddNumeric("packets");
  assert(st.ok());
  st = schema->AddCategorical("protocol", fs.protocol_ontology);
  assert(st.ok());
  st = schema->AddCategorical("src", fs.address_ontology);
  assert(st.ok());
  st = schema->AddCategorical("dst", fs.address_ontology);
  assert(st.ok());
  (void)st;
  fs.schema = std::move(schema);
  return fs;
}

Rule IntrusionCampaign::ToRule(const FlowSchema& fs) const {
  Rule rule = Rule::Trivial(*fs.schema);
  const FlowSchemaLayout& lay = fs.layout;
  rule.set_condition(lay.hour, Condition::MakeNumeric(hour_window));
  rule.set_condition(lay.port, Condition::MakeNumeric(port_range));
  rule.set_condition(lay.kbytes, Condition::MakeNumeric(kbytes_range));
  rule.set_condition(lay.packets, Condition::MakeNumeric(packets_range));
  if (protocol != fs.protocol_ontology->top()) {
    rule.set_condition(lay.protocol, Condition::MakeCategorical(protocol));
  }
  if (src != fs.address_ontology->top()) {
    rule.set_condition(lay.src, Condition::MakeCategorical(src));
  }
  if (dst != fs.address_ontology->top()) {
    rule.set_condition(lay.dst, Condition::MakeCategorical(dst));
  }
  return rule;
}

bool IntrusionCampaign::Matches(const FlowSchema& fs, const Tuple& tuple) const {
  const FlowSchemaLayout& lay = fs.layout;
  if (!hour_window.Contains(tuple[lay.hour])) return false;
  if (!port_range.Contains(tuple[lay.port])) return false;
  if (!kbytes_range.Contains(tuple[lay.kbytes])) return false;
  if (!packets_range.Contains(tuple[lay.packets])) return false;
  const Ontology& proto = *fs.protocol_ontology;
  const Ontology& addr = *fs.address_ontology;
  return proto.Contains(protocol, static_cast<ConceptId>(tuple[lay.protocol])) &&
         addr.Contains(src, static_cast<ConceptId>(tuple[lay.src])) &&
         addr.Contains(dst, static_cast<ConceptId>(tuple[lay.dst]));
}

namespace {

// Draws a campaign from one of three archetypes.
IntrusionCampaign RandomCampaign(const FlowSchema& fs, int index,
                                 int initially_active, Rng* rng) {
  IntrusionCampaign c;
  const Ontology& addr = *fs.address_ontology;
  const Ontology& proto = *fs.protocol_ontology;
  switch (rng->UniformInt(0, 2)) {
    case 0: {  // night port scan from a hostile range
      c.name = StringPrintf("portscan-%d", index);
      int64_t h = rng->UniformInt(0, 4);
      c.hour_window = {h, h + 2};
      int64_t p = rng->UniformInt(1, 1000);
      c.port_range = {p, p + rng->UniformInt(50, 400)};
      c.kbytes_range = {0, 4};
      c.packets_range = {1, 3};
      c.protocol = proto.Find("TCP").ValueOrDie();
      c.src = addr.Find("KnownBotnet").ValueOrDie();
      c.dst = addr.Find("Internal").ValueOrDie();
      break;
    }
    case 1: {  // data exfiltration over a quiet protocol
      c.name = StringPrintf("exfil-%d", index);
      int64_t h = rng->UniformInt(8, 18);
      c.hour_window = {h, h + 3};
      c.port_range = {53, 53};
      c.kbytes_range = Interval::AtLeast(rng->UniformInt(300, 800));
      c.packets_range = Interval::AtLeast(50);
      c.protocol = proto.Find("DNS").ValueOrDie();
      c.src = addr.Find("Office").ValueOrDie();
      c.dst = addr.Find("External").ValueOrDie();
      break;
    }
    default: {  // credential brute force against the DMZ
      c.name = StringPrintf("bruteforce-%d", index);
      int64_t h = rng->UniformInt(18, 21);
      c.hour_window = {h, h + 2};
      c.port_range = {22, 22};
      c.kbytes_range = {1, 30};
      c.packets_range = Interval::AtLeast(rng->UniformInt(20, 60));
      c.protocol = proto.Find("SSH").ValueOrDie();
      c.src = addr.Find("External").ValueOrDie();
      c.dst = addr.Find("DMZ").ValueOrDie();
      break;
    }
  }
  if (index < initially_active) {
    c.start_frac = 0.0;
    c.end_frac = rng->Bernoulli(0.5) ? 1.0 : rng->UniformDouble(0.5, 0.9);
  } else {
    c.start_frac = rng->UniformDouble(0.15, 0.7);
    c.end_frac = 1.0;
  }
  c.weight = rng->UniformDouble(0.5, 1.5);
  return c;
}

Tuple SampleBenign(const FlowSchema& fs, Rng* rng) {
  const FlowSchemaLayout& lay = fs.layout;
  Tuple t(fs.schema->arity(), 0);
  t[lay.hour] = std::clamp<int64_t>(
      static_cast<int64_t>(std::lround(rng->Normal(13, 5))), 0, 23);
  const int64_t common_ports[] = {80, 443, 22, 53, 123, 8080, 3306};
  t[lay.port] = rng->Bernoulli(0.8)
                    ? common_ports[rng->UniformInt(0, 6)]
                    : rng->UniformInt(1024, 65535);
  t[lay.kbytes] = std::clamp<int64_t>(
      static_cast<int64_t>(std::lround(std::exp(rng->Normal(3.0, 1.4)))), 0,
      100000);
  t[lay.packets] = 1 + t[lay.kbytes] / 2 + rng->UniformInt(0, 20);
  t[lay.protocol] =
      RandomLeafUnder(*fs.protocol_ontology, fs.protocol_ontology->top(), rng);
  t[lay.src] =
      RandomLeafUnder(*fs.address_ontology, fs.address_ontology->top(), rng);
  t[lay.dst] =
      RandomLeafUnder(*fs.address_ontology, fs.address_ontology->top(), rng);
  return t;
}

Tuple SampleIntrusion(const FlowSchema& fs, const IntrusionCampaign& c, Rng* rng) {
  const FlowSchemaLayout& lay = fs.layout;
  Tuple t(fs.schema->arity(), 0);
  t[lay.hour] = rng->UniformInt(c.hour_window.lo, c.hour_window.hi);
  t[lay.port] = rng->UniformInt(c.port_range.lo,
                                std::min<int64_t>(c.port_range.hi, 65535));
  int64_t kb_hi = c.kbytes_range.hi == kPosInf ? c.kbytes_range.lo + 500
                                               : c.kbytes_range.hi;
  t[lay.kbytes] = rng->UniformInt(c.kbytes_range.lo, kb_hi);
  int64_t pk_hi = c.packets_range.hi == kPosInf ? c.packets_range.lo + 100
                                                : c.packets_range.hi;
  t[lay.packets] = rng->UniformInt(c.packets_range.lo, pk_hi);
  t[lay.protocol] = RandomLeafUnder(*fs.protocol_ontology, c.protocol, rng);
  t[lay.src] = RandomLeafUnder(*fs.address_ontology, c.src, rng);
  t[lay.dst] = RandomLeafUnder(*fs.address_ontology, c.dst, rng);
  return t;
}

}  // namespace

IntrusionDataset GenerateIntrusionDataset(const IntrusionOptions& options,
                                          double label_prefix_frac) {
  IntrusionDataset ds;
  ds.options = options;
  ds.fs = MakeFlowSchema();
  Rng rng(options.seed);
  for (int i = 0; i < options.num_campaigns; ++i) {
    ds.campaigns.push_back(
        RandomCampaign(ds.fs, i, options.initially_active, &rng));
  }
  ds.relation = std::make_shared<Relation>(ds.fs.schema);

  size_t labeled_prefix =
      static_cast<size_t>(label_prefix_frac * static_cast<double>(options.num_flows));
  ds.relation->Reserve(options.num_flows);
  for (size_t i = 0; i < options.num_flows; ++i) {
    double frac = static_cast<double>(i) / static_cast<double>(options.num_flows);
    std::vector<const IntrusionCampaign*> active;
    std::vector<double> weights;
    for (const IntrusionCampaign& c : ds.campaigns) {
      if (c.ActiveAt(frac)) {
        active.push_back(&c);
        weights.push_back(c.weight);
      }
    }
    bool intrusion = !active.empty() && rng.Bernoulli(options.intrusion_fraction);
    Tuple t = intrusion
                  ? SampleIntrusion(ds.fs, *active[rng.WeightedIndex(weights)], &rng)
                  : SampleBenign(ds.fs, &rng);
    Label truth = intrusion ? Label::kFraud : Label::kLegitimate;
    Label visible = Label::kUnlabeled;
    if (i < labeled_prefix && rng.Bernoulli(options.label_coverage)) {
      visible = truth;
      if (truth == Label::kFraud &&
          rng.Bernoulli(options.missed_report_fraction)) {
        visible = Label::kLegitimate;
      } else if (truth == Label::kLegitimate &&
                 rng.Bernoulli(options.false_alarm_fraction)) {
        visible = Label::kFraud;
      }
    }
    Status st = ds.relation->AppendRow(t, truth, visible);
    assert(st.ok());
    (void)st;
  }
  return ds;
}

RuleSet SynthesizeInitialIdsRules(const IntrusionDataset& dataset, uint64_t seed) {
  Rng rng(seed);
  RuleSet out;
  const FlowSchemaLayout& lay = dataset.fs.layout;
  for (const IntrusionCampaign& c : dataset.campaigns) {
    if (c.start_frac > 0.0) continue;
    Rule rule = c.ToRule(dataset.fs);
    // Stale: clipped hour window, raised volume floor, one specific subnet
    // instead of the zone.
    Interval hours = rule.condition(lay.hour).interval();
    if (hours.hi > hours.lo) hours.hi -= 1;
    rule.set_condition(lay.hour, Condition::MakeNumeric(hours));
    Interval kb = rule.condition(lay.kbytes).interval();
    if (kb.lo != kNegInf && kb.lo > 0) kb.lo += rng.UniformInt(1, 20);
    rule.set_condition(lay.kbytes, Condition::MakeNumeric(kb));
    const Condition& src = rule.condition(lay.src);
    if (!dataset.fs.address_ontology->IsLeaf(src.concept_id()) &&
        src.concept_id() != dataset.fs.address_ontology->top()) {
      std::vector<ConceptId> leaves =
          dataset.fs.address_ontology->LeavesUnder(src.concept_id());
      rule.set_condition(lay.src,
                         Condition::MakeCategorical(leaves[static_cast<size_t>(
                             rng.UniformInt(0, static_cast<int64_t>(leaves.size()) -
                                                   1))]));
    }
    out.AddRule(std::move(rule));
  }
  return out;
}

}  // namespace rudolf
