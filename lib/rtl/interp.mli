(** Cycle-accurate interpreter for {!Circuit} designs.

    The hierarchy is flattened at {!create} time, every flat signal is
    interned into an integer slot of a dense value array, every
    expression is compiled into a closure over slot indices, and the
    combinational network is levelized once ({!Flat.schedule}) — so the
    per-cycle hot path performs no string hashing and no expression-tree
    traversal.  One {!step} = settle combinational logic with the
    current inputs, then take one rising clock edge (latch registers and
    memory writes).

    {!Interp_ref} preserves the original string-keyed engine; the two
    are held bit-equivalent by differential tests. *)

type t

val create : Circuit.t -> t
(** Flatten and schedule the design.
    @raise Invalid_argument on combinational loops (the message lists the
    signals on the cycle). *)

val reset : t -> unit
(** Force every register to its reset value and clear memories to zero;
    re-settle combinational logic. *)

val set_input : t -> string -> Bits.t -> unit
(** @raise Invalid_argument if the name is not a top-level input or the
    width differs. *)

val settle : t -> unit
(** Re-evaluate combinational logic with the current inputs and state. *)

val step : t -> unit
(** [settle] then clock edge. *)

val run : t -> int -> unit
(** [run t n] performs [n] steps. *)

val peek : t -> string -> Bits.t
(** Current value of a top-level port or internal flat signal.  Signals of
    sub-instances use [instname$signal] paths.
    @raise Not_found if unknown. *)

val peek_int : t -> string -> int
(** [Bits.to_int_trunc] of {!peek}. *)

val peek_mem : t -> string -> int -> Bits.t
(** [peek_mem t mem addr]: a word of a (flattened) memory.
    @raise Not_found / [Invalid_argument] on unknown memory / bad address. *)

val poke_mem : t -> string -> int -> Bits.t -> unit
(** Backdoor memory write (test preloading). *)

val signal_names : t -> string list
(** All flat signal names (diagnostics). *)

val memories : t -> (string * int) list
(** All flattened memories as [(flat name, depth)], sorted (diagnostics
    and differential testing). *)

(** {1 Observers}

    Per-cycle hooks for property monitors.  Observers run at the
    sampling point of every {!step} — after combinational settle with
    the cycle's inputs but before the clock edge — so they see exactly
    the values the registers are about to latch, like an assertion
    sampled at the rising edge.  Installed fault injections are already
    folded into the observed values.  With no observers registered the
    evaluation hot path is unchanged. *)

val on_cycle : t -> (int -> unit) -> unit
(** Register an observer; it receives the current cycle number
    (the value {!current_cycle} held when the {!step} began). *)

val clear_observers : t -> unit
(** Remove every registered observer. *)

val reader : t -> string -> (unit -> Bits.t)
(** Pre-resolved accessor for a flat signal: the name is looked up once,
    each call is an array read.  Intended for observers, which must not
    hash strings per cycle.
    @raise Not_found if the signal is unknown. *)

(** {1 Fault injection}

    Deterministic, cycle-scheduled fault injection on named flat
    signals.  Injections perturb the value a signal presents to the rest
    of the design while active: combinational targets are transformed
    after every evaluation, registers at the clock-edge commit, and
    undriven signals (top inputs, floating wires) once per {!step}.
    With no injections installed the evaluation hot path is unchanged. *)

type fault =
  | Stuck_at_0      (** force every bit to 0 while active *)
  | Stuck_at_1      (** force every bit to 1 while active *)
  | Flip of int     (** invert one bit (LSB = 0) while active *)

type injection = {
  inj_signal : string;  (** flat signal name, as in {!signal_names} *)
  inj_fault : fault;
  inj_start : int;      (** first affected cycle, counted by {!step} *)
  inj_cycles : int;     (** duration; [1] models a transient glitch *)
}

val inject : t -> injection list -> unit
(** Install injections (cumulative with previous calls).
    @raise Invalid_argument on an unknown signal, a negative start, a
    non-positive duration, or an out-of-range flip bit. *)

val clear_injections : t -> unit
(** Remove every installed injection and deactivate current faults. *)

val current_cycle : t -> int
(** Number of {!step}s taken since {!create} or {!reset} ({!reset}
    restarts the cycle counter; installed injections are kept and will
    replay relative to the new time base). *)

(** {1 State snapshot}

    Full simulation state as plain data, for checkpoint/restore.  A
    snapshot taken after a {!step} and imported into a freshly
    {!create}d engine of the same circuit resumes bit-exactly: running
    N cycles straight equals snapshot-at-K + import + (N-K) cycles.
    Installed injections are {e not} part of the state — the restoring
    caller re-installs them (they are scheduled on absolute cycles, so
    they re-arm correctly against the restored {!current_cycle}). *)

type state = {
  st_cycle : int;  (** {!current_cycle} at snapshot time *)
  st_values : (string * Bits.t) array;  (** every flat signal's value *)
  st_mems : (string * Bits.t array) array;  (** every memory's words *)
}

val export_state : t -> state
(** Snapshot the current state (deep copies; later steps do not mutate
    the returned value). *)

val import_state : t -> state -> unit
(** Restore a snapshot into an engine created from the same circuit.
    @raise Invalid_argument if a signal or memory is unknown or a
    width/depth disagrees (i.e. the snapshot was taken against a
    different design). *)

val random_campaign :
  t -> seed:int -> n:int -> horizon:int -> injection list
(** [random_campaign t ~seed ~n ~horizon] draws [n] injections over the
    design's signals with start cycles in [0, horizon) and durations of
    1-4 cycles, from a seeded LCG — no global RNG, no wall clock; the
    same arguments always produce the same campaign. *)

(**/**)

(* The by-name view of {!Flat.of_circuit}: flat signals with their
   widths in slot order, top inputs, assignments, registers and
   memories, with every expression over flat names.  The flat-name
   universe and slot numbering are the ones every engine uses. *)

type flat_reg = { fr_name : string; fr_init : Bits.t; fr_next : Expr.t }

type flat_mem = {
  fm_name : string;
  fm_width : int;
  fm_depth : int;
  fm_init : Bits.t array;
  fm_writes : Circuit.mem_write list;
  fm_reads : (string * Expr.t) list;
}

val flatten :
  Circuit.t ->
  (string * int) list
  * (string, int) Hashtbl.t
  * (string * Expr.t) list
  * flat_reg list
  * flat_mem list

val apply_fault : fault -> Bits.t -> Bits.t

(**/**)
