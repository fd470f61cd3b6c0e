"""Meerkat: a reactive programming language runtime.

Programs declare mutable state variables and reactive definitions kept
consistent by glitch-free, transactional propagation.  Running systems
evolve live: programmers submit new or replacement declarations, users
trigger transactional actions, and a type system with explicit dependency
sets decides what may commit concurrently.

The package splits into surface syntax (`syntax`), the static checks
(`typesys`), the versioned value store (`store`), the configuration stepper
(`runtime`), a line-delimited JSON TCP server (`netserver`), an
interactive client (`replcli`), and a schedule-exploration harness
(`simharness`).
"""

from .syntax import (
    ParseError,
    Program,
    DoStmt,
    parse_do,
    parse_expr,
    parse_program,
    render,
)
from .typesys import (
    Action,
    Base,
    Binding,
    CompatReport,
    DepSet,
    DoPlan,
    Func,
    TypeCheckError,
    TypeEnv,
    check_do,
    compatible,
    env_merge,
    infer_expr,
    infer_program,
    transitive_reads,
    well_formed,
)
from .store import (
    Change,
    EvalError,
    PropagationResult,
    Store,
    Value,
    eval_expr,
    init_cells,
    merge_defs,
    propagate,
)
from .runtime import (
    Accepted,
    ActionFailed,
    Config,
    Executed,
    QueueDied,
    RandomSchedule,
    Rejected,
    Step,
    StepOutcome,
    Submission,
    apply_step,
    check_config,
    enabled_steps,
    first_step,
    initial_config,
    run_steps,
    run_until_quiescent,
    step_do_many,
    step_evolve_many,
    step_queue_die,
    submit_do,
    submit_evolution,
)

__version__ = "0.1.0"
