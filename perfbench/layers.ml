(* The per-layer metrics of the traced run.  Every workload prints the
   same names; a layer the workload never reaches prints 0.  Timings
   are milliseconds per pass (one pass = every op of the workload
   once), each the smallest over the traced passes; counts are per
   pass.  README.md maps each name to the end-to-end metric it should
   move and the workload it should move on. *)

(* (name, unit) in print order. *)
let all =
  let ms n = (n, "ms") in
  [
    ms "core.generate.ms"; ("core.generate.calls", "count");
    ("modlib.catalog.hit_frac", "frac");
    ms "rtl.area.ms"; ms "rtl.depth.ms"; ms "rtl.flatten.ms";
    ("rtl.flatten.signals", "count"); ms "rtl.tape_compile.ms";
    ("share.construction", "frac");
    ms "rtl.simulate.ms"; ("rtl.simulate.cycles", "count");
    ("rtl.simulate.cycles_per_s", "1/s");
    ("verify.traffic.transactions", "count");
    ("verify.traffic.mismatches", "count");
    ("share.rtl.simulate", "frac");
    ms "rtl.fault_sim.ms"; ("rtl.fault_sim.cycles", "count");
    ("rtl.fault_sim.cycles_per_s", "1/s");
    ("rtl.fault_sim.injections", "count");
    ("rtl.fault_sim.survived_frac", "frac");
    ("share.rtl.fault_sim", "frac");
    ms "ckpt.sweep.ms"; ("ckpt.sweep.bytes", "bytes");
    ("share.ckpt.sweep", "frac");
    ms "explore.front.ms"; ms "par.supervise.ms";
    ms "apps.session.ms"; ("share.apps.session", "frac");
    ms "sim.machine.ofdm.ms"; ("sim.machine.ofdm.cycles", "count");
    ("sim.machine.ofdm.cycles_per_s", "1/s");
    ms "sim.machine.mpeg2.ms"; ("sim.machine.mpeg2.cycles", "count");
    ("sim.machine.mpeg2.cycles_per_s", "1/s");
    ms "sim.machine.database.ms"; ("sim.machine.database.cycles", "count");
    ("sim.machine.database.cycles_per_s", "1/s");
    ("share.sim.machine", "frac");
    ("serve.generate.ms_p50", "ms"); ("serve.simulate.ms_p50", "ms");
    ("serve.verify.ms_p50", "ms"); ("serve.fuzz.ms_p50", "ms");
    ("serve.inject.ms_p50", "ms"); ("serve.explore.ms_p50", "ms");
    ("serve.exec.ms_p50", "ms"); ("serve.overhead.ms_p50", "ms");
    ("serve.queue_wait.ms_p50", "ms");
    ("serve.journal.us_per_req", "us");
    ("serve.journal.bytes_per_req", "bytes");
    ("serve.cache.circuit_hit_frac", "frac");
    ("serve.cache.tape_hit_frac", "frac");
    ("trace.overhead_frac", "frac"); ("trace.layer_self_frac", "frac");
  ]

let ratio a b = if b > 0. then a /. b else 0.

(* [traced] and [untraced] are the passes of the run; Trace.pass
   numbered the traced ones 0, 1, ... in order.  [extra] carries the
   workload's own figures (the serve metrics, the catalog hit
   fraction) by name. *)
let compute ~(traced : Harness.pass array) ~(untraced : Harness.pass array) ~extra =
  let self = Trace.self_times () in
  let passes = List.init (Array.length traced) Fun.id in
  let self_ms p name = 1000. *. Option.value (Hashtbl.find_opt self (p, name)) ~default:0. in
  let layer_ms name =
    match passes with
    | [] -> 0.
    | _ -> List.fold_left (fun acc p -> Float.min acc (self_ms p name)) infinity passes
  in
  let counter name =
    match passes with
    | [] -> 0.
    | p :: _ -> Option.value (Hashtbl.find_opt Trace.counters (p, name)) ~default:0.
  in
  let wall (ps : Harness.pass array) =
    if ps = [||] then 0. else 1000. *. Harness.fmin (Array.map (fun p -> p.Harness.wall_s) ps)
  in
  let traced_ms = wall traced in
  let share ms = ratio ms traced_ms in
  let v = Hashtbl.create 64 in
  let set name x = Hashtbl.replace v name x in
  let layer name = set (name ^ ".ms") (layer_ms name) in
  List.iter layer
    [ "core.generate"; "rtl.area"; "rtl.depth"; "rtl.flatten"; "rtl.simulate";
      "rtl.fault_sim"; "ckpt.sweep"; "explore.front"; "par.supervise";
      "apps.session"; "sim.machine.ofdm"; "sim.machine.mpeg2";
      "sim.machine.database" ];
  (* Engine.create flattens the design itself before compiling its
     tape; the replay's standalone flatten times that step. *)
  let flatten = layer_ms "rtl.flatten" in
  set "rtl.tape_compile.ms" (Float.max 0. (layer_ms "rtl.tape_compile" -. flatten));
  set "core.generate.calls" (counter "core.generate.calls");
  set "rtl.flatten.signals"
    (ratio (counter "rtl.flatten.signals") (counter "rtl.flatten.designs"));
  let per_s cycles ms = ratio (counter cycles) (ms /. 1000.) in
  set "rtl.simulate.cycles" (counter "rtl.simulate.cycles");
  set "rtl.simulate.cycles_per_s"
    (per_s "rtl.simulate.cycles" (layer_ms "rtl.simulate"));
  set "verify.traffic.transactions" (counter "verify.traffic.transactions");
  set "verify.traffic.mismatches" (counter "verify.traffic.mismatches");
  set "rtl.fault_sim.cycles" (counter "rtl.fault_sim.cycles");
  set "rtl.fault_sim.cycles_per_s"
    (per_s "rtl.fault_sim.cycles" (layer_ms "rtl.fault_sim"));
  set "rtl.fault_sim.injections" (counter "rtl.fault_sim.injections");
  set "rtl.fault_sim.survived_frac"
    (ratio (counter "rtl.fault_sim.survived") (counter "rtl.fault_sim.injections"));
  set "ckpt.sweep.bytes" (counter "ckpt.sweep.bytes");
  List.iter
    (fun app ->
      let name = "sim.machine." ^ app in
      set (name ^ ".cycles") (counter (name ^ ".cycles"));
      set (name ^ ".cycles_per_s") (per_s (name ^ ".cycles") (layer_ms name)))
    [ "ofdm"; "mpeg2"; "database" ];
  (* The real path's construction: Generate.generate then Engine.create
     (which includes its own flatten). *)
  set "share.construction"
    (share
       (List.fold_left ( +. ) 0.
          (List.map layer_ms [ "core.generate"; "rtl.area"; "rtl.depth"; "rtl.tape_compile" ])));
  set "share.rtl.simulate" (share (layer_ms "rtl.simulate"));
  set "share.rtl.fault_sim" (share (layer_ms "rtl.fault_sim"));
  set "share.ckpt.sweep" (share (layer_ms "ckpt.sweep"));
  set "share.apps.session" (share (layer_ms "apps.session"));
  set "share.sim.machine"
    (share
       (List.fold_left ( +. ) 0.
          (List.map layer_ms
             [ "sim.machine.ofdm"; "sim.machine.mpeg2"; "sim.machine.database" ])));
  set "trace.overhead_frac"
    (if traced_ms > 0. then ratio traced_ms (wall untraced) -. 1. else 0.);
  (* Share of the fastest traced pass that a named layer accounts for
     (the replay's own glue inside explore.score is not a layer). *)
  let fastest =
    let best = ref 0 in
    Array.iteri
      (fun i p -> if p.Harness.wall_s < traced.(!best).Harness.wall_s then best := i)
      traced;
    !best
  in
  let spanned =
    Hashtbl.fold
      (fun (p, name) s acc -> if p = fastest && name <> "explore.score" then acc +. s else acc)
      self 0.
  in
  set "trace.layer_self_frac" (if traced = [||] then 0. else share (1000. *. spanned));
  List.iter (fun (name, x) -> set name x) extra;
  List.map
    (fun (name, unit) -> (name, Option.value (Hashtbl.find_opt v name) ~default:0., unit))
    all
