type report = { levels : int; endpoint : string }

exception Combinational_cycle = Flat.Combinational_cycle

(* Numbers names in first-seen order; the second function lists them
   by number. *)
let interner () =
  let ids = Hashtbl.create 16 and names = ref [] in
  let id name =
    match Hashtbl.find_opt ids name with
    | Some i -> i
    | None ->
        let i = Hashtbl.length ids in
        Hashtbl.add ids name i;
        names := name :: !names;
        i
  in
  (id, fun () -> Array.of_list (List.rev !names))

(* By-name view of {!Flat.levelize}. *)
let levelize nodes =
  let id, names = interner () in
  let targets = Array.of_list (List.map (fun (name, _) -> id name) nodes) in
  let dep_off = Array.make (Array.length targets + 1) 0 in
  let deps =
    List.concat
      (List.mapi
         (fun i (_, ds) ->
           let ds = List.map id ds in
           dep_off.(i + 1) <- dep_off.(i) + List.length ds;
           ds)
         nodes)
  in
  let names = names () in
  let order, levels =
    Flat.levelize ~n:(Array.length names)
      ~name:(fun i -> names.(i))
      ~targets ~dep_off ~deps:(Array.of_list deps)
  in
  Array.to_list (Array.mapi (fun k i -> (names.(targets.(i)), levels.(k))) order)

let clog2 n =
  let rec go w = if 1 lsl w >= n then w else go (w + 1) in
  if n <= 1 then 0 else go 1

(* Levels contributed by one operator over operands of width [w]. *)
let adder_levels w = 2 * max 1 (clog2 w)
let cmp_levels w = 1 + clog2 w

(* A walk over flat expressions: [leaf] gives the depth already reached
   at a slot, and each sub-expression leaves its width in [w] as it
   returns, so every width is computed once. *)
type walk = { widths : int array; mutable leaf : int -> int; mutable w : int }

let rec levels k (e : Flat.expr) =
  match e with
  | Flat.Const b ->
      k.w <- Bits.width b;
      0
  | Flat.Slot s ->
      let l = k.leaf s in
      k.w <- k.widths.(s);
      l
  | Flat.Select (x, hi, lo) ->
      let l = levels k x in
      k.w <- hi - lo + 1;
      l
  | Flat.Shift_left (x, _) | Flat.Shift_right (x, _) -> levels k x
  | Flat.Concat xs ->
      let rec go l wd = function
        | [] ->
            k.w <- wd;
            l
        | x :: rest ->
            let lx = levels k x in
            go (max l lx) (wd + k.w) rest
      in
      go 0 0 xs
  | Flat.Unop (Expr.Not, x) -> 1 + levels k x
  | Flat.Unop ((Expr.Reduce_or | Expr.Reduce_and | Expr.Reduce_xor), x) ->
      let l = levels k x in
      let wx = k.w in
      k.w <- 1;
      max 1 (clog2 wx) + l
  | Flat.Binop (op, a, b) -> (
      let la = levels k a in
      let wa = k.w in
      let lb = levels k b in
      let wb = k.w in
      let l = max la lb in
      match op with
      | Expr.And | Expr.Or | Expr.Xor ->
          k.w <- wa;
          1 + l
      | Expr.Add | Expr.Sub ->
          k.w <- wa;
          adder_levels wa + l
      | Expr.Mul | Expr.Smul ->
          (* Booth/Wallace partial products then a final carry-lookahead. *)
          k.w <- wa + wb;
          clog2 wb + adder_levels (wa + wb) + l
      | Expr.Eq | Expr.Neq ->
          k.w <- 1;
          cmp_levels wa + l
      | Expr.Ult | Expr.Ule ->
          k.w <- 1;
          adder_levels wa + 1 + l)
  | Flat.Mux (c, a, b) ->
      let lc = levels k c in
      let la = levels k a in
      let wa = k.w in
      let lb = levels k b in
      k.w <- wa;
      1 + max lc (max la lb)

let expr_levels ~env depth_of_var e =
  let id, names = interner () in
  let fe = Flat.of_expr id e in
  let names = names () in
  levels
    { widths = Array.map env names;
      leaf = (fun s -> depth_of_var names.(s)); w = 0 }
    fe

let of_circuit (top : Circuit.t) =
  let f = Flat.of_circuit top in
  let n = Array.length f.names in
  let driver = Array.make n (-1) in
  Array.iteri (fun i (nd : Flat.node) -> driver.(nd.target) <- i) f.nodes;
  (* slot -> -1 unknown, -2 on the search path, else its depth *)
  let memo = Array.make n (-1) in
  let path = Array.make (Array.length f.nodes) 0 and on_path = ref 0 in
  let k = { widths = f.widths; leaf = (fun _ -> 0); w = 0 } in
  let depth_of s =
    let d = memo.(s) in
    if d >= 0 then d
    else if d = -2 then
      invalid_arg
        ("Depth: combinational loop through "
        ^ String.concat " -> "
            (List.init (!on_path + 1) (fun j ->
                 f.names.(if j < !on_path then path.(j) else s))))
    else
      let i = driver.(s) in
      let d =
        if i < 0 then 0 (* input, register output or constant source *)
        else begin
          memo.(s) <- -2;
          path.(!on_path) <- s;
          incr on_path;
          let nd = f.nodes.(i) in
          let l = levels k nd.body in
          decr on_path;
          if nd.mem < 0 then l
          else
            (* Address decode then word mux: log2(depth) levels. *)
            max 1 (clog2 f.mems.(nd.mem).mem_depth) + l
        end
      in
      memo.(s) <- d;
      d
  in
  k.leaf <- depth_of;
  (* Endpoints: every combinational target (covers output ports), every
     register D input, every memory write port, each group visited
     last-declared first.  The first endpoint of the greatest depth
     names the path. *)
  let best = ref 0 and endpoint = ref (Circuit.name top) in
  let rev_iter f a =
    for i = Array.length a - 1 downto 0 do
      f a.(i)
    done
  in
  rev_iter
    (fun (nd : Flat.node) ->
      let d = depth_of nd.target in
      if d > !best then begin
        best := d;
        endpoint := f.names.(nd.target)
      end)
    f.nodes;
  rev_iter
    (fun (r : Flat.reg) ->
      let d = levels k r.reg_next in
      if d > !best then begin
        best := d;
        endpoint := f.names.(r.reg_slot) ^ " (reg D)"
      end)
    f.regs;
  rev_iter
    (fun (m : Flat.mem) ->
      List.iter
        (fun (wr : Flat.mem_write) ->
          let d =
            max (levels k wr.we) (max (levels k wr.waddr) (levels k wr.wdata))
          in
          if d > !best then begin
            best := d;
            endpoint := m.mem_name ^ " (mem write)"
          end)
        (List.rev m.mem_writes))
    f.mems;
  { levels = !best; endpoint = !endpoint }

let pp_report fmt r =
  Format.fprintf fmt "critical path: %d levels, ending at %s" r.levels
    r.endpoint
