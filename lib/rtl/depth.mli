(** Combinational critical-path estimation, in gate levels.

    The companion of {!Area}: where [Area] substitutes for Design
    Compiler's gate counts, [Depth] substitutes for its timing report.
    Each operator contributes a technology-independent number of logic
    levels (and/or/mux = 1, xor = 1, comparator = [1 + log2 w], adder =
    [2 * log2 w] as a carry-lookahead, multiplier = Wallace tree plus
    final adder); wiring-only operations (select, concat, constant
    shifts) are free.  The design is flattened, so paths that cross
    instance boundaries combinationally are followed end to end;
    registers and memories terminate paths.

    The estimate is deliberately coarse — it ranks the generated bus
    systems against each other (e.g. how much combinational depth a
    bridge chain or a wide [Busjoin] adds) rather than predicting
    nanoseconds. *)

type report = {
  levels : int;          (** longest register-to-register / port-to-port path *)
  endpoint : string;     (** flat name of the signal ending that path *)
}

exception Combinational_cycle of string list
(** A dependency cycle among combinational nodes; the payload is the
    node names along the cycle, in dependency order.  The same exception
    as {!Flat.Combinational_cycle}. *)

val levelize : (string * string list) list -> (string * int) list
(** [levelize nodes] topologically orders combinational [nodes], each
    given as [(name, dependencies)]: the by-name view of
    {!Flat.levelize}, with the same order and levels.  Dependencies that
    are not themselves nodes (inputs, registers, memory words) are
    sources at level 0.  Returns every node paired with its level —
    [1 + max] of its dependencies' levels — in evaluation
    (dependency-first) order, so evaluating the returned sequence once
    settles the whole network without any fixed-point iteration.  The
    traversal is deterministic in the order of [nodes].
    @raise Combinational_cycle on a dependency cycle. *)

val of_circuit : Circuit.t -> report
(** Flatten the hierarchy ({!Flat.of_circuit}) and return the critical
    path.  Among endpoints of the greatest depth, combinational
    targets come before register inputs and those before memory write
    ports; within each kind the last declared names the path.
    @raise Invalid_argument on combinational loops. *)

val expr_levels : env:(string -> int) -> (string -> int) -> Expr.t -> int
(** [expr_levels ~env depth_of_var e]: levels through one expression,
    where [env] gives signal widths and [depth_of_var] the depth already
    accumulated at each leaf variable.  Exposed for tests. *)

val pp_report : Format.formatter -> report -> unit
