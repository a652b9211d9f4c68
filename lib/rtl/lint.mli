(** Structural checks on circuits beyond what {!Circuit.Builder.finish}
    enforces. *)

type report = {
  errors : string list;
  warnings : string list;
}

val check : Circuit.t -> report
(** Errors: combinational loops anywhere in the flattened hierarchy and
    declarations that flatten to the same name (both found on the
    {!Flat} netlist, without building an engine), duplicate instance
    names, signals named [clk]/[rst] (reserved by the Verilog emitter).
    Warnings: wires that drive nothing (unread). *)

val is_clean : report -> bool
(** No errors (warnings allowed). *)

val pp_report : Format.formatter -> report -> unit
