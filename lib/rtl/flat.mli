(** The flat netlist: a {!Circuit} hierarchy flattened once, with every
    signal interned to an integer slot.

    Every signal of every instance becomes the flat signal
    [prefix ^ signal] (instance [u] inside instance [top] contributes
    the prefix ["u$"]); instance boundaries become zero-cost alias
    assignments.  Slots number the flat signals in declaration order:
    a circuit's ports, wires, registers and memory read ports, then its
    instances, depth first.  Expressions refer to slots, not names, so
    the consumers — the evaluation engines, the critical-path model,
    lint — build their schedules from integer arrays and look no flat
    name up while doing so. *)

(** An {!Expr.t} whose variables are resolved to slots. *)
type expr =
  | Const of Bits.t
  | Slot of int
  | Select of expr * int * int
  | Concat of expr list
  | Unop of Expr.unop * expr
  | Binop of Expr.binop * expr * expr
  | Mux of expr * expr * expr
  | Shift_left of expr * int
  | Shift_right of expr * int

(** A combinational node: an assignment (or instance-boundary alias)
    when [mem] is [-1], else a read port of memory [mems.(mem)] whose
    [body] is the address. *)
type node = { target : int; body : expr; mem : int }

type reg = { reg_slot : int; reg_init : Bits.t; reg_next : expr }

type mem_write = { we : expr; waddr : expr; wdata : expr }

type mem = {
  mem_name : string;  (** flat name *)
  mem_width : int;
  mem_depth : int;
  mem_init : Bits.t array;
  mem_writes : mem_write list;  (** applied in order at the clock edge *)
}

type t = {
  names : string array;  (** slot -> flat name *)
  widths : int array;  (** slot -> width *)
  slots : (string, int) Hashtbl.t;  (** flat name -> slot *)
  inputs : (string * int) list;  (** top-level input ports and their slots *)
  nodes : node array;
      (** assignments in declaration order, then every memory's read
          ports in memory order *)
  regs : reg array;
  mems : mem array;
}

val of_circuit : Circuit.t -> t
(** Flatten and intern.  A variable is resolved through the names its
    own circuit declares; a name the circuit does not declare is looked
    up as the flat name [prefix ^ name].
    @raise Invalid_argument if two declarations flatten to the same
    name (the message names the instance paths of both) or a variable
    names no flat signal. *)

val to_expr : t -> expr -> Expr.t
(** The by-name view of an expression. *)

val of_expr : (string -> int) -> Expr.t -> expr
(** Resolve an expression's variables with the given lookup. *)

(** {1 Levelizing} *)

exception Combinational_cycle of string list
(** A dependency cycle among combinational nodes; the payload names the
    nodes along the cycle in dependency order, first and last equal. *)

val levelize :
  n:int ->
  name:(int -> string) ->
  targets:int array ->
  dep_off:int array ->
  deps:int array ->
  int array * int array
(** The one levelizer.  Ids are [0 .. n-1]; node [i] drives id
    [targets.(i)] and depends on ids
    [deps.(dep_off.(i)) .. deps.(dep_off.(i + 1) - 1)].  Ids no node
    drives are sources at level 0; when several nodes drive one id, the
    last of them is its driver.  Returns [(order, levels)]: the driving
    nodes in evaluation (dependency-first) order, from a depth-first
    search that starts at each node's target in node order and visits
    dependencies in the given order, and [levels.(k)], the level of
    [order.(k)] — one more than the maximum level of its dependencies
    (so [0] for a node with none).  [name] is consulted only to report
    a cycle.
    @raise Combinational_cycle on a dependency cycle. *)

type schedule = {
  order : int array;  (** indices into [nodes], evaluation order *)
  levels : int array;  (** level of [order.(k)] *)
  dep_off : int array;
  deps : int array;
      (** node [i]'s dependencies: the distinct slots its body reads,
          in first-use order, at [deps.(dep_off.(i)) ..
          deps.(dep_off.(i + 1) - 1)] *)
}

val schedule : t -> schedule
(** {!levelize} the combinational nodes.
    @raise Combinational_cycle on a combinational loop. *)
