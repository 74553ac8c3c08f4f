"""Both planners on one instance: prioritized planning versus the iterated
independent-set variant, with the round-by-round trace and the
communication ledger.

Run from the repository root:  python3 demos/05_two_planners.py
"""

import numpy as np

from mapfkit import (
    comm_time,
    generate_instance,
    generate_random_map,
    solve_hca,
    solve_variant,
    validate_solution,
)

# (1) A solvable instance: 12 agents on a random 30x30 map. The generator
#     guarantees prioritized planning succeeds under any order.
grid = generate_random_map(30, 30, 0.1, seed=5)
instance = generate_instance(grid, 12, seed=17)
print(f"map 30x30, {len(grid.obstacles)} obstacles, {instance.n_agents} agents")

# (2) The baseline needs a priority order; different orders give different
#     (all valid) solutions.
for order_seed in (0, 1):
    order = [int(a) for a in np.random.default_rng(order_seed).permutation(12)]
    solution = solve_hca(instance, order)
    print(f"baseline, order {order}: sum_of_costs={solution.sum_of_costs} makespan={solution.makespan}")

# (3) The variant needs no order: all pending agents plan at once, an
#     independent set of the collision graph is fixed, the rest replan.
solution, trace = solve_variant(instance)
print(f"\nvariant: sum_of_costs={solution.sum_of_costs} makespan={solution.makespan}")
for i, rec in enumerate(trace.iterations, start=1):
    print(
        f"  round {i}: pending={len(rec.ig.nodes)} collisions={rec.ig.n_edges} "
        f"fixed={list(rec.independent)}"
    )

violations = validate_solution(solution.paths, grid, instance.agents)
print(f"validation: {'ok' if not violations else violations}")

# (4) Parallelism is free of charge only until the agents have to talk to
#     the server; the ledger counts every transmitted bit.
ledger = trace.ledger
print(f"\ncommunication: {ledger.total_bits()} bits total "
      f"({ledger.rt_bits} for the final reservation table)")
for i, it in enumerate(ledger.iterations, start=1):
    print(f"  round {i}: source/goal {it.source_goal_bits}, paths {it.path_bits}, pairs {it.ig_bits}")
print(f"at 8e7 bits/s that costs {comm_time(ledger):.3e} s")
