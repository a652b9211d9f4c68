(** One handle over the three evaluation engines.

    Downstream subsystems (testbench, property monitors, fault
    campaigns, checkpoint/soak drivers, CLI) hold an {!t} instead of a
    concrete engine, so [--engine ref|slot|tape] swaps the evaluator
    without touching them.  All three engines share the flat-name
    universe and {!Interp.state} snapshot layout, so cross-engine
    checkpoint restore works by construction. *)

type kind = Ref | Slot | Tape

val kind_of_string : string -> (kind, string) result
(** ["ref"], ["slot"] or ["tape"]; [Error] carries a one-line message
    suitable for stderr. *)

val kind_to_string : kind -> string

val all_kinds : kind list
(** [[Ref; Slot; Tape]], for test matrices. *)

val default_kind : kind
(** {!Tape} — the fastest engine, held bit-exact against the others by
    the three-way differential suite. *)

type t

val create : ?kind:kind -> Circuit.t -> t
(** Flatten and compile the design with the chosen engine
    (default {!default_kind}).
    @raise Invalid_argument on combinational loops. *)

val of_interp : Interp.t -> t
(** Wrap an existing slot engine (legacy call sites). *)

val kind : t -> kind

val reset : t -> unit
val set_input : t -> string -> Bits.t -> unit
val settle : t -> unit
val step : t -> unit
val run : t -> int -> unit

val peek : t -> string -> Bits.t
(** @raise Not_found if unknown. *)

val peek_int : t -> string -> int
val peek_mem : t -> string -> int -> Bits.t
val poke_mem : t -> string -> int -> Bits.t -> unit
val signal_names : t -> string list
val memories : t -> (string * int) list

val on_cycle : t -> (int -> unit) -> unit
val clear_observers : t -> unit

val reader : t -> string -> unit -> Bits.t
(** @raise Not_found if the signal is unknown. *)

(** {2 Handles}

    Resolve a flat name once and get a closure that does no name
    lookup, for loops that touch the same signals every cycle.  A
    handle stays valid for the engine's lifetime: across {!reset},
    {!import_state}, {!clear_observers} and injections. *)

val int_reader : t -> string -> unit -> int
(** [int_reader t name ()] equals [peek_int t name].
    @raise Not_found if the signal is unknown. *)

val int_writer : t -> string -> int -> unit
(** [int_writer t name v] equals
    [set_input t name (Bits.of_int ~width v)], [width] being the input's
    width: the value is truncated to the width, and a negative one is
    sign-extended first.
    @raise Invalid_argument, when the handle is made, if [name] is not a
    top input (as {!set_input} does). *)

val inject : t -> Interp.injection list -> unit
val clear_injections : t -> unit
val current_cycle : t -> int

val export_state : t -> Interp.state
val import_state : t -> Interp.state -> unit

val random_campaign :
  t -> seed:int -> n:int -> horizon:int -> Interp.injection list
(** Engine-independent: all three engines draw the identical stream for
    the same circuit and arguments. *)
