(* The repository benchmark.  Usage, from the repository root (run.py
   builds this executable and the CLI, then calls it):

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--cli PATH] [--git-rev REV]

   Prints run facts, then as its last line one JSON object with the
   keys correct, attempted, failed and metrics: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1.  README.md
   says why each workload exists and what each metric should move.

   Maintenance modes: [--golden NAME] prints the reference outputs of
   a workload (perfbench/golden/NAME.txt); [--probe NAME] times one
   cold set-up in this fresh process (see Harness.probe_report). *)

module Json = Busgen_json.Json

let workloads = [ "tables"; "explore-short"; "explore-long-faults"; "serve-mix" ]
let out_dir = ".perfbench-out"

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 2)
    fmt

let args =
  let rec go acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        go ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | arg :: _ -> die "unexpected argument %S" arg
  in
  go [] (List.tl (Array.to_list Sys.argv))

let arg name = List.assoc_opt name args

let int_arg name ~default =
  match arg name with
  | None -> default
  | Some s -> (
      match int_of_string_opt s with Some v -> v | None -> die "--%s wants an integer" name)

let explore_spec = function
  | "explore-short" -> Some W_explore.short
  | "explore-long-faults" -> Some W_explore.long
  | _ -> None

let read_file path =
  if not (Sys.file_exists path) then die "missing %s (run from the repository root)" path;
  In_channel.with_open_bin path In_channel.input_all

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* CPUs of the host, whatever this process is pinned to. *)
let host_cpus () =
  In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.starts_with ~prefix:"processor" l)
  |> List.length

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* ------------------------------------------------------------------ *)
(* Workloads behind one record                                         *)
(* ------------------------------------------------------------------ *)

type workload = {
  warm : unit -> Harness.pass;
      (** the untimed first pass, in canonical order, so the
          high-water RSS read after it does not depend on the seed *)
  pass : traced:bool -> Harness.pass;
  probe : unit -> float;  (** one cold set-up sample, in seconds *)
  peak_rss : unit -> float;
  tamper_trips : unit -> bool;
  facts : unit -> (string * Json.t) list;
  extra : unit -> (string * float) list;  (** workload-own per-layer figures *)
  close : unit -> unit;
  concurrent : bool;  (** ops overlap in time (serve-mix) *)
}

let probe_child name = Harness.child_seconds [ "--probe"; name ]

let catalog_hit_frac () =
  let s = Busgen_modlib.Catalog.cache_stats () in
  let total = s.Busgen_cache.Lru.st_hits + s.Busgen_cache.Lru.st_misses in
  if total = 0 then 0. else float_of_int s.Busgen_cache.Lru.st_hits /. float_of_int total

let tables ~seed =
  let rf = W_tables.parse_golden (read_file W_tables.golden_path) in
  let order = W_tables.order ~seed in
  W_tables.setup ();
  let last = ref [||] in
  {
    warm =
      (fun () ->
        let p, outcomes =
          W_tables.pass ~max_reps:1 ~rf
            ~order:(Array.init (Array.length W_tables.rows) Fun.id)
            ~traced:false ()
        in
        last := outcomes;
        p);
    pass =
      (fun ~traced ->
        let p, outcomes = W_tables.pass ~rf ~order ~traced () in
        last := outcomes;
        p);
    probe = (fun () -> probe_child "tables");
    peak_rss = (fun () -> Harness.peak_rss_mb 0);
    tamper_trips = (fun () -> W_tables.tamper_trips rf !last);
    facts =
      (fun () -> [ ("model_vs_paper", W_tables.model_error !last) ]);
    extra = (fun () -> [ ("modlib.catalog.hit_frac", catalog_hit_frac ()) ]);
    close = ignore;
    concurrent = false;
  }

let explore spec ~seed ~scratch =
  let t =
    W_explore.prepare spec ~seed ~scratch
      ~reference:(read_file (W_explore.golden_path spec))
  in
  {
    warm = (fun () -> W_explore.pass (W_explore.canonical t) ~traced:false);
    pass = W_explore.pass t;
    probe = (fun () -> probe_child spec.W_explore.sp_name);
    peak_rss = (fun () -> Harness.peak_rss_mb 0);
    tamper_trips = (fun () -> W_explore.tamper_trips t);
    facts = (fun () -> W_explore.facts t);
    extra = (fun () -> [ ("modlib.catalog.hit_frac", catalog_hit_frac ()) ]);
    close = ignore;
    concurrent = false;
  }

let serve ~seed ~trace ~scratch =
  let cli =
    match arg "cli" with
    | Some c when Sys.file_exists c -> c
    | Some c -> die "no CLI executable at %s" c
    | None -> die "serve-mix needs --cli PATH (run.py passes it)"
  in
  let t = W_serve.prepare ~cli ~seed ~scratch in
  {
    warm = (fun () -> W_serve.warm t);
    pass = W_serve.pass t;
    probe = (fun () -> W_serve.probe t);
    peak_rss = (fun () -> W_serve.peak_rss t);
    tamper_trips = (fun () -> W_serve.tamper_trips t);
    facts = (fun () -> W_serve.facts t);
    extra = (fun () -> if trace then W_serve.layer_figures t else []);
    close = (fun () -> W_serve.close t);
    concurrent = true;
  }

(* ------------------------------------------------------------------ *)
(* Modes                                                               *)
(* ------------------------------------------------------------------ *)

let probe name =
  match name, explore_spec name with
  | "tables", _ -> Harness.probe_report W_tables.setup
  | _, Some spec -> Harness.probe_report (fun () -> W_explore.setup spec)
  | _ -> die "no set-up probe for %s" name

let golden name =
  match name, explore_spec name with
  | "tables", _ -> print_string (W_tables.golden_text ())
  | _, Some spec -> print_string (W_explore.golden_text spec)
  | _ -> die "no reference file for %s" name

let run name ~seed ~seconds ~trace =
  let make =
    match name, explore_spec name with
    | "tables", _ -> fun ~scratch:_ -> tables ~seed
    | _, Some spec -> explore spec ~seed
    | "serve-mix", _ -> serve ~seed ~trace
    | _ -> die "unknown workload %S (expected %s)" name (String.concat ", " workloads)
  in
  let scratch = Filename.concat out_dir (Printf.sprintf "run-%d" (Unix.getpid ())) in
  rm_rf scratch;
  mkdir_p scratch;
  at_exit (fun () -> rm_rf scratch);
  let w = make ~scratch in
  Fun.protect
    ~finally:(fun () ->
      w.close ();
      rm_rf scratch)
    (fun () ->
      (* One untimed pass fills the caches and lazy set-up a user pays
         once; set-up itself is sampled cold, in fresh processes.  The
         peak RSS is read after it: the high-water mark of doing the
         workload once, which later passes in the seed's order would
         only nudge by where garbage collections happen to fall. *)
      let warm = w.warm () in
      let peak_rss = w.peak_rss () in
      let n_traced = ref 0 in
      let pass ~traced =
        if traced then begin
          Trace.enabled := true;
          Trace.pass := !n_traced;
          incr n_traced
        end;
        Fun.protect ~finally:(fun () -> Trace.enabled := false) (fun () -> w.pass ~traced)
      in
      let run =
        Harness.drive ~seconds:(float_of_int seconds) ~min_passes:3 ~probes:15
          ~probe:w.probe ~trace ~pass
      in
      let all = Array.concat [ [| warm |]; run.Harness.untraced; run.Harness.traced ] in
      let attempted = Array.fold_left (fun a p -> a + p.Harness.attempted) 0 all in
      let failed = Array.fold_left (fun a p -> a + p.Harness.failed) 0 all in
      let tamper = w.tamper_trips () in
      let e2e, run_facts = Harness.end_to_end ~run ~concurrent:w.concurrent ~peak_rss in
      let metrics =
        if trace then
          Layers.compute ~traced:run.Harness.traced ~untraced:run.Harness.untraced
            ~extra:(w.extra ())
        else e2e
      in
      if trace then begin
        mkdir_p out_dir;
        Trace.write_spans
          (Filename.concat out_dir (Printf.sprintf "spans-%s-seed%d.jsonl" name seed))
      end;
      let facts =
        [
          ("workload", Json.String name);
          ("seed", Json.Int seed);
          ("seconds", Json.Int seconds);
          ("trace", Json.Bool trace);
          ("nproc", Json.Int (host_cpus ()));
          ("cpus_used", Json.Int (Domain.recommended_domain_count ()));
          ("ocaml", Json.String Sys.ocaml_version);
          ("git_rev", Json.String (Option.value (arg "git-rev") ~default:"unknown"));
          ("tamper_gate_trips", Json.Bool tamper);
        ]
        @ run_facts @ w.facts ()
      in
      print_endline (Json.to_string (Json.Obj [ ("facts", Json.Obj facts) ]));
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ("correct", Json.Bool (failed = 0 && tamper));
                ("attempted", Json.Int attempted);
                ("failed", Json.Int failed);
                ("metrics", Harness.metrics_json metrics);
              ])))

let () =
  match (arg "probe", arg "golden", arg "workload") with
  | Some name, _, _ -> probe name
  | _, Some name, _ -> golden name
  | _, _, Some name ->
      let trace =
        match arg "trace" with
        | None | Some "0" -> false
        | Some "1" -> true
        | Some s -> die "--trace wants 0 or 1, not %S" s
      in
      let seconds = int_arg "seconds" ~default:10 in
      if seconds < 1 then die "--seconds must be positive";
      run name ~seed:(int_arg "seed" ~default:0) ~seconds ~trace
  | None, None, None -> die "missing --workload (one of %s)" (String.concat ", " workloads)
