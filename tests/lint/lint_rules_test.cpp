// One deliberately broken netlist per lint rule. Everything here goes
// through Circuit::add_unchecked / SeqCircuit::add_*_unchecked — the
// canonicalizing builder cannot produce these defects (it asserts), which
// is exactly the lint subsystem's reason to exist.
#include <gtest/gtest.h>

#include "ir/circuit.h"
#include "ir/seq.h"
#include "lint/lint.h"

namespace rtlsat::lint {
namespace {

using ir::Circuit;
using ir::NetId;
using ir::Node;
using ir::Op;
using ir::SeqCircuit;

// Node factory for deliberately broken nodes (designated initializers of
// the partial aggregate trip -Wmissing-field-initializers under -Wextra).
Node make_node(Op op, int width, std::vector<NetId> operands,
               std::int64_t imm = 0, std::int64_t imm2 = 0,
               std::string name = {}) {
  Node n;
  n.op = op;
  n.width = width;
  n.operands = std::move(operands);
  n.imm = imm;
  n.imm2 = imm2;
  n.name = std::move(name);
  return n;
}

// Asserts the report contains at least one diagnostic for `rule` and that
// every diagnostic of that rule carries the catalog severity.
void expect_rule(const LintReport& report, std::string_view rule) {
  const auto hits = report.by_rule(rule);
  ASSERT_FALSE(hits.empty()) << "rule " << rule << " did not fire";
  const RuleInfo* info = find_rule(rule);
  ASSERT_NE(info, nullptr);
  for (const Diagnostic& d : hits) {
    EXPECT_EQ(d.severity, info->severity) << d.message;
    EXPECT_FALSE(d.message.empty());
  }
}

TEST(LintRules, CatalogIsConsistent) {
  const auto& catalog = rule_catalog();
  ASSERT_GE(catalog.size(), 19u);
  for (const RuleInfo& rule : catalog) {
    EXPECT_EQ(find_rule(rule.id), &rule);
    EXPECT_FALSE(rule.description.empty());
  }
  EXPECT_EQ(find_rule("no-such-rule"), nullptr);
}

TEST(LintRules, CleanCircuitIsClean) {
  Circuit c("clean");
  const NetId a = c.add_input("a", 4);
  const NetId b = c.add_input("b", 4);
  const NetId lt = c.add_lt(a, b);
  LintOptions options;
  options.roots = {lt};
  const LintReport report = lint_circuit(c, options);
  EXPECT_TRUE(report.diagnostics.empty());
}

TEST(LintRules, OperandCount) {
  Circuit c("bad");
  const NetId a = c.add_input("a", 1);
  c.add_unchecked(make_node(Op::kNot, 1, {a, a}));
  expect_rule(lint_circuit(c), "operand-count");
}

TEST(LintRules, OperandWidth) {
  Circuit c("bad");
  const NetId a = c.add_input("a", 4);
  const NetId b = c.add_input("b", 8);
  c.add_unchecked(make_node(Op::kAdd, 4, {a, b}));
  expect_rule(lint_circuit(c), "operand-width");
}

TEST(LintRules, BooleanWidth) {
  Circuit c("bad");
  const NetId a = c.add_input("a", 8);
  const NetId b = c.add_input("b", 1);
  c.add_unchecked(make_node(Op::kAnd, 1, {a, b}));
  expect_rule(lint_circuit(c), "boolean-width");
}

TEST(LintRules, MuxSelect) {
  Circuit c("bad");
  const NetId sel = c.add_input("sel", 2);
  const NetId t = c.add_input("t", 4);
  const NetId e = c.add_input("e", 4);
  c.add_unchecked(make_node(Op::kMux, 4, {sel, t, e}));
  expect_rule(lint_circuit(c), "mux-select");
}

TEST(LintRules, ExtractBounds) {
  Circuit c("bad");
  const NetId a = c.add_input("a", 4);
  c.add_unchecked(
      make_node(Op::kExtract, 3, {a}, /*imm=*/5, /*imm2=*/3));
  expect_rule(lint_circuit(c), "extract-bounds");
}

TEST(LintRules, ImmRange) {
  Circuit c("bad");
  const NetId a = c.add_input("a", 4);
  c.add_unchecked(
      make_node(Op::kShlC, 4, {a}, /*imm=*/7));
  expect_rule(lint_circuit(c), "imm-range");
}

TEST(LintRules, MaxWidth) {
  Circuit c("bad");
  c.add_unchecked(
      make_node(Op::kInput, ir::kMaxWidth + 1, {}, 0, 0, "wide"));
  expect_rule(lint_circuit(c), "max-width");
}

TEST(LintRules, ConstRange) {
  Circuit c("bad");
  c.add_unchecked(make_node(Op::kConst, 2, {}, /*imm=*/9));
  expect_rule(lint_circuit(c), "const-range");
}

TEST(LintRules, CombCycle) {
  Circuit c("bad");
  const NetId a = c.add_input("a", 1);
  // Node 1 reads itself.
  c.add_unchecked(make_node(Op::kAnd, 1, {a, 1}));
  expect_rule(lint_circuit(c), "comb-cycle");
}

TEST(LintRules, UndrivenNet) {
  Circuit c("bad");
  c.add_unchecked(make_node(Op::kNot, 1, {ir::kNoNet}));
  expect_rule(lint_circuit(c), "undriven-net");
}

TEST(LintRules, UnnamedInput) {
  Circuit c("bad");
  c.add_unchecked(make_node(Op::kInput, 4, {}));
  expect_rule(lint_circuit(c), "unnamed-input");
}

TEST(LintRules, DeadNet) {
  Circuit c("suspicious");
  const NetId a = c.add_input("a", 1);
  const NetId b = c.add_input("b", 1);
  const NetId root = c.add_and(a, b);
  const NetId dead = c.add_xor(a, b);
  LintOptions options;
  options.roots = {root};
  const LintReport report = lint_circuit(c, options);
  const auto hits = report.by_rule("dead-net");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].net, dead);
  EXPECT_EQ(hits[0].severity, Severity::kWarning);
}

TEST(LintRules, DeadNetSkippedWithoutRoots) {
  Circuit c("no-roots");
  const NetId a = c.add_input("a", 1);
  const NetId b = c.add_input("b", 1);
  c.add_xor(a, b);
  EXPECT_TRUE(lint_circuit(c).by_rule("dead-net").empty());
}

TEST(LintRules, MissedConstFold) {
  Circuit c("suspicious");
  const NetId a = c.add_input("a", 1);
  const NetId zero = c.add_const(0, 1);
  // The builder folds a ∧ 0 to 0; hand assembly keeps the gate.
  c.add_unchecked(make_node(Op::kAnd, 1, {a, zero}));
  expect_rule(lint_circuit(c), "missed-const-fold");
}

TEST(LintRules, StructuralErrorsSuppressSemanticRules) {
  Circuit c("bad");
  const NetId a = c.add_input("a", 1);
  const NetId zero = c.add_const(0, 1);
  // Foldable gate *and* a dangling operand: only the structural error
  // should be reported — semantic rules cannot trust a broken netlist.
  c.add_unchecked(make_node(Op::kAnd, 1, {a, zero}));
  c.add_unchecked(make_node(Op::kNot, 1, {99}));
  const LintReport report = lint_circuit(c);
  EXPECT_FALSE(report.by_rule("undriven-net").empty());
  EXPECT_TRUE(report.by_rule("missed-const-fold").empty());
  EXPECT_TRUE(report.by_rule("dead-net").empty());
}

TEST(LintRules, UnboundRegister) {
  SeqCircuit seq("bad");
  seq.add_register("r", 4, 0);  // never bound
  expect_rule(lint_seq_circuit(seq), "unbound-register");
}

TEST(LintRules, RegisterWidthMismatch) {
  SeqCircuit seq("bad");
  const NetId q = seq.comb().add_input("q", 4);
  const NetId d = seq.comb().add_input("d", 8);
  seq.add_register_unchecked({.q = q, .d = d, .init = 0, .name = "r"});
  expect_rule(lint_seq_circuit(seq), "register-width");
}

TEST(LintRules, RegisterStateNotAnInput) {
  SeqCircuit seq("bad");
  const NetId a = seq.comb().add_input("a", 1);
  const NetId not_a = seq.comb().add_not(a);
  seq.add_register_unchecked({.q = not_a, .d = not_a, .init = 0, .name = "r"});
  expect_rule(lint_seq_circuit(seq), "register-width");
}

TEST(LintRules, RegisterInitRange) {
  SeqCircuit seq("bad");
  const NetId q = seq.comb().add_input("q", 2);
  const NetId one = seq.comb().add_const(1, 2);
  const NetId d = seq.comb().add_add(q, one);
  seq.add_register_unchecked({.q = q, .d = d, .init = 5, .name = "r"});
  expect_rule(lint_seq_circuit(seq), "register-init-range");
}

TEST(LintRules, PropertyBool) {
  SeqCircuit seq("bad");
  const NetId a = seq.comb().add_input("a", 4);
  seq.add_property_unchecked({"p", a});
  expect_rule(lint_seq_circuit(seq), "property-bool");
}

TEST(LintRules, ConstantRegister) {
  SeqCircuit seq("suspicious");
  const NetId q = seq.comb().add_input("q", 2);
  seq.add_register_unchecked({.q = q, .d = q, .init = 1, .name = "stuck"});
  expect_rule(lint_seq_circuit(seq), "constant-register");
}

TEST(LintRules, DuplicateRegister) {
  SeqCircuit seq("suspicious");
  const NetId q = seq.comb().add_input("q", 2);
  const NetId x = seq.comb().add_input("x", 2);
  const NetId d = seq.comb().add_add(q, x);
  seq.add_register_unchecked({.q = q, .d = d, .init = 0, .name = "r0"});
  seq.add_register_unchecked({.q = q, .d = d, .init = 0, .name = "r1"});
  expect_rule(lint_seq_circuit(seq), "duplicate-register");
}

TEST(LintRules, AnalyzerBackedConstantComparator) {
  Circuit c("analyzer");
  const NetId a = c.add_input("a", 3);
  const NetId za = c.add_zext(a, 8);
  c.add_lt(za, c.add_const(16, 8));  // 0..7 < 16, provably true
  expect_rule(lint_circuit(c), "constant-comparator");
}

TEST(LintRules, AnalyzerBackedConstantNet) {
  Circuit c("analyzer");
  const NetId a = c.add_input("a", 4);
  // min(a, 0) is provably 0 — a non-comparator constant net.
  const NetId m = c.add_min_raw(a, c.add_const(0, 4));
  c.add_add(m, c.add_input("b", 4));
  expect_rule(lint_circuit(c), "constant-net");
}

TEST(LintRules, AnalyzerBackedDeadMuxArm) {
  Circuit c("analyzer");
  const NetId a = c.add_input("a", 3);
  const NetId sel = c.add_lt(c.add_zext(a, 4), c.add_const(8, 4));  // true
  c.add_mux(sel, c.add_input("t", 4), c.add_input("e", 4));
  expect_rule(lint_circuit(c), "dead-mux-arm");
}

TEST(LintRules, AnalyzerBackedOversizedNet) {
  Circuit c("analyzer");
  const NetId a = c.add_input("a", 3);
  const NetId za = c.add_zext(a, 12);  // 12 bits for a ≤ 7 value
  c.add_add(za, c.add_input("b", 12));
  expect_rule(lint_circuit(c), "oversized-net");
}

TEST(LintRules, AnalyzerBackedInvariantConstantRegister) {
  // d = min(q, 0) with init 0: real logic in the next-state cone, yet the
  // register provably never leaves 0.
  SeqCircuit seq("analyzer");
  Circuit& c = seq.comb();
  const NetId q = seq.add_register("r", 4, 0);
  seq.bind_next(q, c.add_min_raw(q, c.add_const(0, 4)));
  expect_rule(lint_seq_circuit(seq), "invariant-constant-register");
}

TEST(LintRules, DiagnosticsArriveInCatalogOrder) {
  Circuit c("bad");
  c.add_unchecked(make_node(Op::kInput, 4, {}));           // unnamed
  c.add_unchecked(make_node(Op::kConst, 2, {}, /*imm=*/9));  // range
  const LintReport report = lint_circuit(c);
  ASSERT_EQ(report.diagnostics.size(), 2u);
  // const-range precedes unnamed-input in the catalog.
  EXPECT_EQ(report.diagnostics[0].rule_id, "const-range");
  EXPECT_EQ(report.diagnostics[1].rule_id, "unnamed-input");
}

TEST(LintRules, ValidateDelegatesToSharedChecker) {
  Circuit c("bad");
  c.add_unchecked(make_node(Op::kNot, 1, {ir::kNoNet}));
  EXPECT_DEATH(c.validate(), "undriven-net");
}

// validate(first) checks the nets a growth step appended: a defect at or
// after `first` aborts it. Nets before `first` are left to the earlier
// check — but lint, which always covers every net, still reports them.
TEST(LintRules, ValidateFromFirstChecksAppendedNets) {
  Circuit c("grown");
  const NetId a = c.add_input("a", 1);
  const NetId first = c.num_nets();
  c.add_not(a);
  c.add_unchecked(make_node(Op::kAnd, 1, {a, 99}));
  EXPECT_DEATH(c.validate(first), "undriven-net");
  EXPECT_DEATH(c.validate(c.num_nets() - 1), "undriven-net");

  Circuit old_defect("grown");
  const NetId b = old_defect.add_input("b", 1);
  old_defect.add_unchecked(make_node(Op::kNot, 1, {ir::kNoNet}));
  const NetId appended = old_defect.num_nets();
  old_defect.add_not(b);
  old_defect.validate(appended);  // the defect precedes `first`
  expect_rule(lint_circuit(old_defect), "undriven-net");
}

}  // namespace
}  // namespace rtlsat::lint
