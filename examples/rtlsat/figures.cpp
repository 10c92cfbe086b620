// rtlsat figures: the paper's worked examples as executable traces:
//   Fig. 1 — level-1 recursive learning on a Boolean cone,
//   Fig. 2 — predicate learning on the b04 fragment (the four clauses),
//   Fig. 3/4 — RTL justification walking a mux chain to SAT.
#include <algorithm>
#include <cstdio>

#include "cli.h"
#include "core/deduce.h"
#include "core/predicate_learning.h"

namespace rtlsat::cli {

using namespace rtlsat::core;

namespace {

ir::NetId named(ir::Circuit& c, ir::NetId id, const char* name) {
  c.set_net_name(id, name);
  return id;
}

void figure1() {
  std::printf("— Figure 1: recursive learning to level 1 —\n");
  ir::Circuit c("fig1");
  const ir::NetId a = c.add_input("a", 1);
  const ir::NetId b = c.add_input("b", 1);
  const ir::NetId x1 = c.add_input("x1", 1);
  const ir::NetId x2 = c.add_input("x2", 1);
  const ir::NetId cc = named(c, c.add_and({a, b, x1}), "c");
  const ir::NetId dd = named(c, c.add_and({a, b, x2}), "d");
  const ir::NetId e = named(c, c.add_or(cc, dd), "e");
  c.add_mux(e, c.add_input("w1", 4), c.add_input("w2", 4));

  prop::Engine engine(c);
  ClauseDb db(c);
  std::size_t cursor = 0;
  run_predicate_learning(engine, db, &cursor, {});
  std::printf("learned clauses:\n");
  for (std::uint32_t id = 0; id < db.size(); ++id)
    std::printf("  %s\n", db.clause(id).to_string(c).c_str());
  std::printf("(paper: e=1 -> a=1 and e=1 -> b=1)\n\n");
}

void figure2() {
  std::printf("— Figure 2: predicate learning on the b04 fragment —\n");
  ir::Circuit c("fig2");
  const ir::NetId w0 = c.add_input("w0", 3);
  const ir::NetId w1 = c.add_input("w1", 3);
  const ir::NetId w2 = c.add_input("w2", 3);
  const ir::NetId w3 = c.add_input("w3", 3);
  const ir::NetId w4 = c.add_input("w4", 3);
  const ir::NetId b0 = c.add_input("b0", 1);
  const ir::NetId b1 = named(c, c.add_le(c.add_const(1, 3), w1), "b1");
  const ir::NetId b2 = named(c, c.add_lt(c.add_const(0, 3), w1), "b2");
  const ir::NetId b3 = named(c, c.add_le(c.add_const(1, 3), w2), "b3");
  const ir::NetId b4 = named(c, c.add_le(w2, c.add_const(1, 3)), "b4");
  const ir::NetId b5 = named(c, c.add_and(b1, b0), "b5");
  const ir::NetId b6 = named(c, c.add_and(b2, b0), "b6");
  const ir::NetId b7 = named(c, c.add_and(b3, b4), "b7");
  const ir::NetId b8 = named(c, c.add_or(b5, b7), "b8");
  const ir::NetId b9 = named(c, c.add_or(b6, b7), "b9");
  c.add_mux(b8, w3, w0);
  c.add_mux(b9, w4, w0);

  prop::Engine engine(c);
  ClauseDb db(c);
  std::size_t cursor = 0;
  const auto report = run_predicate_learning(engine, db, &cursor, {});
  std::printf("%d relations learned in %d probes; binary clauses on b5..b9:\n",
              report.relations_learned, report.probes);
  for (std::uint32_t id = 0; id < db.size(); ++id) {
    const ClauseView clause = db.clause(id);
    const bool relevant =
        std::any_of(clause.lits.begin(), clause.lits.end(), [&](auto& l) {
          return l.net == b5 || l.net == b6 || l.net == b8 || l.net == b9;
        });
    if (relevant && clause.lits.size() == 2)
      std::printf("  %s\n", clause.to_string(c).c_str());
  }
  std::printf("(paper: (b5|!b6), (b6|!b5), (!b8|b9), (!b9|b8))\n\n");
}

void figure4() {
  std::printf("— Figure 4: structural decision making —\n");
  ir::Circuit c("fig4");
  const ir::NetId w1 = c.add_input("w1", 3);
  const ir::NetId a1 = c.add_input("a1", 3);
  const ir::NetId a2 = c.add_input("a2", 3);
  const ir::NetId x0 = c.add_input("x0", 1);
  const ir::NetId w2 =
      named(c, c.add_concat(c.add_const(3, 2), c.add_zext(x0, 1)), "w2");
  const ir::NetId b1 = named(c, c.add_lt(a1, a2), "b1");
  const ir::NetId b2 = named(c, c.add_lt(a2, a1), "b2");
  const ir::NetId w3 = named(c, c.add_mux(b2, w2, w1), "w3");
  const ir::NetId w4 = named(c, c.add_mux(b1, w2, w3), "w4");
  const ir::NetId b7 = c.add_eq(w4, c.add_const(5, 3));

  HdpllOptions options;
  options.structural_decisions = true;
  HdpllSolver solver(c, options);
  solver.assume_bool(b7, true);
  const SolveResult result = solver.solve();
  std::printf("proposition w4 == 5: %s (%.4fs)\n",
              result.status == SolveStatus::kSat ? "SATISFIABLE" : "UNSAT",
              result.seconds);
  std::printf("  b1=%d b2=%d w3=%s w1=%s\n", solver.engine().bool_value(b1),
              solver.engine().bool_value(b2),
              solver.engine().interval(w3).to_string().c_str(),
              solver.engine().interval(w1).to_string().c_str());
  std::printf("(paper trace: decide b1=0 -> w3=<5>; decide b2=0 -> w1=<5>; "
              "SATISFIABLE)\n");
}

}  // namespace

int cmd_figures(Args& args) {
  args.rest(0);
  figure1();
  figure2();
  figure4();
  return 0;
}

}  // namespace rtlsat::cli
