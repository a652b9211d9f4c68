(** The RTL fault-injection campaign shared by the CLI [inject] command
    and the serve [inject] job.

    A campaign replays one seeded input schedule against an engine and
    records, every cycle, the top outputs and the protection taps.  A
    faulty run is classified against the golden run into the two flags
    behind the protection quadrants. *)

type t

val prepare :
  Busgen_rtl.Engine.t -> Busgen_rtl.Circuit.t -> seed:int -> cycles:int -> t
(** Draw the input schedule for [cycles] cycles and pick the observed
    signals of the design the engine was built from.
    @raise Invalid_argument if an input or an observed signal is wider
    than 62 bits. *)

val protected : t -> bool
(** Whether the design exports any protection tap. *)

val trace : t -> Busgen_rtl.Engine.t -> int array array
(** Reset the engine (installed injections stay), run the schedule and
    return the observed values per cycle. *)

val classify : t -> golden:int array array -> int array array -> bool * bool
(** [(corrupt, flagged)]: whether any top output, resp. any protection
    tap, differs from the golden trace on some cycle. *)
