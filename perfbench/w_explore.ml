(* Workloads "explore-short" and "explore-long-faults": one op is one
   candidate scored by [Explore.run ~jobs:1].

   explore-short is a wide grid with short fault-free traffic, where
   construction (generate, area, depth, flatten, tape compile)
   dominates.  explore-long-faults is its mirror: a narrow protected
   grid with long traffic and a fault campaign, checkpointed through
   [Sweep] the way [explore --sweep-ckpt] does, where fault-free
   dirty-set simulation and faulted full re-evaluation dominate.  The
   profiles are fixed; the seed permutes the order of the grid axes,
   which changes the order candidates are scored in but not the work
   or the canonical front. *)

module G = Bussyn.Generate
module E = Busgen_rtl.Engine
module X = Busgen_explore.Explore
module Xp = Busgen_explore.Profile
module Sv = Busgen_par.Supervise
module Sweep = Busgen_ckpt.Sweep
module Json = Busgen_json.Json

type spec = { sp_name : string; sp_profile : string; sp_sweep : bool }

let short =
  {
    sp_name = "explore-short";
    sp_sweep = false;
    sp_profile =
      "seed = 42\n\
       transactions = 40\n\
       pes = 2\n\
       archs = bfba, gbavi, gbavii, gbaviii, hybrid, splitba, ggba, ccba\n\
       widths = 16, 32\n\
       depths = 4, 8\n\
       arbs = priority, rr\n\
       protect = both\n\
       faults = 0\n";
  }

let long =
  {
    sp_name = "explore-long-faults";
    sp_sweep = true;
    sp_profile =
      "seed = 7\n\
       transactions = 600\n\
       pes = 2\n\
       archs = gbaviii, hybrid, splitba, ccba\n\
       widths = 16, 32\n\
       depths = 8\n\
       arbs = priority, rr\n\
       protect = true\n\
       faults = 4\n\
       fault_seed = 3\n";
  }

let base_profile spec =
  match Xp.parse spec.sp_profile with
  | Ok p -> p
  | Error e -> failwith ("benchmark profile: " ^ e)

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* The seed's input: the same grid with its axes in a seeded order. *)
let seeded_profile spec ~seed =
  let p = base_profile spec in
  let rng = Random.State.make [| seed; 0x5eed |] in
  {
    p with
    Xp.archs = shuffle rng p.Xp.archs;
    widths = shuffle rng p.Xp.widths;
    depths = shuffle rng p.Xp.depths;
    arbs = shuffle rng p.Xp.arbs;
  }

(* ------------------------------------------------------------------ *)
(* Reference                                                           *)
(* ------------------------------------------------------------------ *)

let score_line (s : X.score) =
  String.concat " "
    [
      s.X.sc_label; s.sc_arch; string_of_int s.sc_width; string_of_int s.sc_depth;
      s.sc_arb; string_of_bool s.sc_protect; string_of_int s.sc_gates;
      string_of_int s.sc_cycles; string_of_int s.sc_transactions;
      string_of_int s.sc_mismatches; string_of_int s.sc_rel_num;
      string_of_int s.sc_rel_den; string_of_int s.sc_detected;
    ]

(* front_json names the profile by its hash, which depends on the axis
   order; the rest of the document does not.  The reference holds the
   digest of the document with that one field blanked, and the field
   itself is checked against the run's own profile. *)
let front_digest p front =
  match front with
  | Json.Obj fields ->
      let hash_ok = List.assoc_opt "profile" fields = Some (Json.String (Xp.hash p)) in
      let blanked =
        List.map (fun (k, v) -> if k = "profile" then (k, Json.String "") else (k, v)) fields
      in
      (hash_ok, Digest.to_hex (Digest.string (Json.to_string (Json.Obj blanked))))
  | _ -> (false, "")

type reference = { rf_front : string; rf_scores : (string, string) Hashtbl.t }

let golden_path spec = Printf.sprintf "perfbench/golden/%s.txt" spec.sp_name

let golden_text spec =
  let p = base_profile spec in
  let report = X.run ~jobs:1 p in
  let b = Buffer.create 4096 in
  Printf.bprintf b "front %s\n" (snd (front_digest p (X.front_json report)));
  Array.iter
    (function
      | Some s -> Printf.bprintf b "score %s\n" (score_line s)
      | None -> failwith "casualty while writing the reference")
    report.X.x_scores;
  Buffer.contents b

let parse_reference text =
  let rf = { rf_front = ""; rf_scores = Hashtbl.create 128 } in
  List.fold_left
    (fun rf line ->
      match String.index_opt line ' ' with
      | Some i when String.sub line 0 i = "front" ->
          { rf with rf_front = String.sub line (i + 1) (String.length line - i - 1) }
      | Some i when String.sub line 0 i = "score" ->
          let body = String.sub line (i + 1) (String.length line - i - 1) in
          let label = List.hd (String.split_on_char ' ' body) in
          Hashtbl.replace rf.rf_scores label body;
          rf
      | _ -> rf)
    rf
    (String.split_on_char '\n' text)

(* Failed checks of one pass's outputs against the reference: one per
   candidate whose score differs, one if the front differs. *)
let check rf p (scores : X.score option array) front =
  let bad = ref 0 in
  Array.iter
    (function
      | Some s when Hashtbl.find_opt rf.rf_scores s.X.sc_label = Some (score_line s) -> ()
      | _ -> incr bad)
    scores;
  let hash_ok, digest = front_digest p front in
  if not (hash_ok && digest = rf.rf_front) then incr bad;
  !bad

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)
(* ------------------------------------------------------------------ *)

type t = {
  spec : spec;
  profile : Xp.t;
  cands : X.candidate array;
  canon : int array;  (** run position -> canonical op index *)
  rf : reference;
  sweep_dir : string;
  mutable last : (X.score option array * Json.t) option;
  mutable replays : int;  (** traced passes *)
  mutable replay_mismatch : int;  (** traced passes whose scores differ from untraced *)
  mutable untraced_scores : X.score option array;
}

let prepare spec ~seed ~scratch ~reference =
  let profile = seeded_profile spec ~seed in
  let cands = X.candidates profile in
  let base = X.candidates (base_profile spec) in
  let index = Hashtbl.create 128 in
  Array.iteri (fun i c -> Hashtbl.replace index (X.label c) i) base;
  {
    spec;
    profile;
    cands;
    canon = Array.map (fun c -> Hashtbl.find index (X.label c)) cands;
    rf = parse_reference reference;
    sweep_dir = Filename.concat scratch "sweep";
    last = None;
    replays = 0;
    replay_mismatch = 0;
    untraced_scores = [||];
  }

(* The same workload with the grid in its canonical order, for the
   warm-up pass: the heap's high-water mark, read after it, then does
   not depend on the seed.  Its outputs stay on the copy. *)
let canonical t =
  let profile = base_profile t.spec in
  { t with profile; cands = X.candidates profile; canon = Array.init (Array.length t.cands) Fun.id }

let ident t = Printf.sprintf "explore/profile=%s" (Xp.hash t.profile)

let fresh_sweep t =
  if t.spec.sp_sweep then begin
    let file = Filename.concat t.sweep_dir "sweep.bsck" in
    if Sys.file_exists file then Sys.remove file;
    match Sweep.load ~dir:t.sweep_dir ~ident:(ident t) ~total:(Array.length t.cands) () with
    | Ok s -> Some s
    | Error e -> failwith e
  end
  else None

let sweep_bytes t =
  let file = Filename.concat t.sweep_dir "sweep.bsck" in
  if Sys.file_exists file then float_of_int (Unix.stat file).Unix.st_size else 0.

let pass t ~traced =
  let n = Array.length t.cands in
  let sweep = fresh_sweep t in
  let op_s = Array.make n 0. in
  let note =
    match sweep with
    | None -> fun _ _ -> ()
    | Some s ->
        fun i sc -> Trace.span "ckpt.sweep" (fun () -> Sweep.note s i (X.encode_score sc))
  in
  (* An op is the interval between two candidates' completions;
     checkpointing a score is billed to the next candidate, as the
     sweep would be. *)
  let last = ref (Harness.cpu ()) in
  let on_case i sc =
    let now = Harness.cpu () in
    op_s.(t.canon.(i)) <- now -. !last;
    last := now;
    note i sc
  in
  let report =
    if traced then begin
      (* Explore.run, with the replayed score as the job function. *)
      let outcomes =
        Trace.span "par.supervise" (fun () ->
            Sv.run ~jobs:1
              ~on_result:(fun i -> function Sv.Ok s -> on_case i s | _ -> ())
              n
              (fun i -> Trace.span "explore.score" (fun () -> Steps.score t.profile t.cands.(i))))
      in
      {
        X.x_profile = t.profile;
        x_scores = Array.map (function Sv.Ok s -> Some s | _ -> None) outcomes;
        x_casualties = Sv.casualties outcomes;
      }
    end
    else X.run ~jobs:1 ~on_case t.profile
  in
  let front = Trace.span "explore.front" (fun () -> X.front_json report) in
  Option.iter (fun s -> Trace.span "ckpt.sweep" (fun () -> Sweep.save s)) sweep;
  let extra = Harness.cpu () -. !last in
  if sweep <> None then Trace.count "ckpt.sweep.bytes" (sweep_bytes t);
  (* A traced pass is one more check: its replayed scores must equal
     the untraced pass's (traced and untraced passes alternate, the
     untraced first). *)
  let replay_failed =
    if traced then begin
      t.replays <- t.replays + 1;
      if t.untraced_scores = report.X.x_scores then 0
      else begin
        t.replay_mismatch <- t.replay_mismatch + 1;
        1
      end
    end
    else begin
      t.untraced_scores <- report.X.x_scores;
      0
    end
  in
  t.last <- Some (report.X.x_scores, front);
  {
    Harness.op_s;
    extra_s = extra;
    wall_s = Array.fold_left ( +. ) extra op_s;
    attempted = n + 1 + Bool.to_int traced;
    failed = check t.rf t.profile report.X.x_scores front + replay_failed;
  }

(* A tampered reference must fail the last pass's outputs. *)
let tamper_trips t =
  match t.last with
  | None -> false
  | Some (scores, front) ->
      let label = List.hd (Hashtbl.fold (fun k _ acc -> k :: acc) t.rf.rf_scores []) in
      let scores_rf = Hashtbl.copy t.rf.rf_scores in
      Hashtbl.replace scores_rf label (Hashtbl.find scores_rf label ^ "0");
      let front_rf = { t.rf with rf_front = "0" ^ t.rf.rf_front } in
      check { t.rf with rf_scores = scores_rf } t.profile scores front > 0
      && check front_rf t.profile scores front > 0

(* Cold set-up in a fresh process: parse the profile, then construct
   its first candidate, which warms the module catalog.  The canonical
   profile is used, so the set-up is the same work for every seed. *)
let setup spec =
  let p = base_profile spec in
  let c = (X.candidates p).(0) in
  let r = G.generate c.X.ca_arch (X.config_of p c) in
  ignore (E.create r.G.generated.Bussyn.Archs.top)

let facts t =
  [
    ("profile", Json.String (Xp.canonical t.profile));
    ("candidates", Json.Int (Array.length t.cands));
    ( "replay_matches_score",
      if t.replays = 0 then Json.Null else Json.Bool (t.replay_mismatch = 0) );
  ]
