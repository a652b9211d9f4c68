(** Tape-compiled interpreter with activity-based evaluation.

    Third evaluation engine in the ref -> slot -> tape lineage.
    {!create} compiles the levelized circuit into a flat linear tape of
    pre-decoded ops — int opcode plus slot operands in contiguous
    arrays, no per-expression closures — with the immediate-int fast
    path inlined for signals of width <= 62 bits.  Two dynamic
    optimizations ride on the tape: activity-based evaluation (per-level
    dirty sets from a slot -> fanout map, so unchanged combinational
    cones are skipped) and idle-stretch batching ({!run} fast-forwards
    register-stable stretches while still firing observers at correct
    cycle numbers).

    The API mirrors {!Interp} exactly — same fault-injection and
    observer interfaces, and {!Interp.state} snapshots interchange
    across all three engines.  Differential tests in [test/test_rtl.ml]
    hold this engine bit-exact against both {!Interp} and
    {!Interp_ref}. *)

type t

val create : Circuit.t -> t
(** Flatten, levelize and tape-compile the design.
    @raise Invalid_argument on combinational loops or width-rule
    violations. *)

val reset : t -> unit
val set_input : t -> string -> Bits.t -> unit
val settle : t -> unit
val step : t -> unit

val run : t -> int -> unit
(** [run t n] performs [n] steps, batching steady (register-stable)
    stretches: cycles in which the design is at a fixed point advance
    the cycle counter without re-evaluating the netlist.  Observers
    still fire once per cycle with correct cycle numbers and see
    exactly the values an unbatched run would show. *)

val peek : t -> string -> Bits.t
(** @raise Not_found if unknown. *)

val peek_int : t -> string -> int
val peek_mem : t -> string -> int -> Bits.t
val poke_mem : t -> string -> int -> Bits.t -> unit

val signal_names : t -> string list
(** All flat signal names, sorted. *)

val memories : t -> (string * int) list
(** All flattened memories as [(flat name, depth)], sorted. *)

val on_cycle : t -> (int -> unit) -> unit
(** Register a per-cycle observer.  Same sampling point as
    {!Interp.on_cycle}: after the combinational settle with the cycle's
    inputs, before the clock edge. *)

val clear_observers : t -> unit

val reader : t -> string -> unit -> Bits.t
(** Pre-resolved accessor for a flat signal.
    @raise Not_found if the signal is unknown. *)

val int_reader : t -> string -> unit -> int
(** Pre-resolved {!peek_int}: reads the cell directly.
    @raise Not_found if the signal is unknown. *)

val int_writer : t -> string -> int -> unit
(** Pre-resolved [set_input name (Bits.of_int ~width v)] for a top
    input of width [width]: stores into the cell directly.
    @raise Invalid_argument if [name] is not a top input. *)

val inject : t -> Interp.injection list -> unit
(** Mirror of {!Interp.inject} (same campaign descriptors, same
    validation).  Installing injections disables idle batching until
    the campaign windows are resolved.
    @raise Invalid_argument on unknown signals or bad schedules. *)

val clear_injections : t -> unit

val current_cycle : t -> int
(** Steps taken since [create]/[reset]. *)

val export_state : t -> Interp.state
(** Snapshot the current state.  Shares {!Interp.state}, so checkpoints
    interchange with the other engines — the flattening (and therefore
    the flat-name universe) is identical by construction. *)

val import_state : t -> Interp.state -> unit
(** Restore a snapshot into an engine created from the same circuit.
    @raise Invalid_argument on unknown names or width/depth mismatch. *)

val random_campaign :
  t -> seed:int -> n:int -> horizon:int -> Interp.injection list
(** Identical stream to {!Interp.random_campaign} for the same circuit
    and arguments (same LCG over the same sorted name list). *)
