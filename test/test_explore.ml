(* Design-space exploration: the Pareto kernel (dominance, ties,
   ordering and permutation invariance on hand-built points), the
   profile file format (parse errors, canonical round-trip, stable
   hash), the score codec, and the end-to-end determinism contract —
   the JSON front emitted by a [jobs = 4] run must be byte-identical
   to the [jobs = 1] run's. *)

module X = Busgen_explore.Explore
module Xp = Busgen_explore.Profile
module P = Busgen_explore.Pareto
module Json = Busgen_json.Json
module E = Busgen_rtl.Engine

let pt ?(rel = (1, 1)) label cycles gates =
  {
    P.pt_label = label;
    pt_cycles = cycles;
    pt_gates = gates;
    pt_rel_num = fst rel;
    pt_rel_den = snd rel;
  }

let labels ps = List.map (fun p -> p.P.pt_label) ps

(* ------------------------------------------------------------------ *)
(* Pareto kernel                                                       *)
(* ------------------------------------------------------------------ *)

let test_dominance () =
  let a = pt "a" 100 1000 and b = pt "b" 200 2000 in
  Alcotest.(check bool) "better on both dominates" true (P.dominates a b);
  Alcotest.(check bool) "worse never dominates" false (P.dominates b a);
  let c = pt "c" 100 2000 and d = pt "d" 200 1000 in
  Alcotest.(check bool) "trade-off c vs d" false (P.dominates c d);
  Alcotest.(check bool) "trade-off d vs c" false (P.dominates d c);
  (* Equal on two axes, strictly better on one. *)
  let e = pt "e" 100 1000 ~rel:(3, 4) and f = pt "f" 100 1000 ~rel:(1, 2) in
  Alcotest.(check bool) "reliability breaks the tie" true (P.dominates e f);
  Alcotest.(check bool) "not backwards" false (P.dominates f e);
  (* Cross-multiplied rationals: 2/3 > 3/5. *)
  let g = pt "g" 1 1 ~rel:(2, 3) and h = pt "h" 1 1 ~rel:(3, 5) in
  Alcotest.(check bool) "2/3 beats 3/5" true (P.rel_compare g h > 0);
  Alcotest.(check bool) "equal ratios equal" true
    (P.rel_compare (pt "i" 1 1 ~rel:(1, 2)) (pt "j" 1 1 ~rel:(2, 4)) = 0)

let test_identical_points_never_dominate () =
  let a = pt "a" 100 1000 ~rel:(1, 2) and b = pt "b" 100 1000 ~rel:(2, 4) in
  Alcotest.(check bool) "a !> b" false (P.dominates a b);
  Alcotest.(check bool) "b !> a" false (P.dominates b a);
  (* Duplicates therefore both survive on the front. *)
  let front = P.front [ a; b; pt "z" 200 2000 ~rel:(1, 2) ] in
  Alcotest.(check (list string)) "both duplicates kept" [ "a"; "b" ]
    (labels front)

let test_front_hand_built () =
  let points =
    [
      pt "slow-small" 300 500;
      pt "fast-big" 100 3000;
      pt "mid" 200 1000;
      pt "dominated" 250 1200;     (* beaten by mid on both axes *)
      pt "strictly-worst" 400 4000;
    ]
  in
  let front = P.front points in
  Alcotest.(check (list string))
    "front, cycles ascending"
    [ "fast-big"; "mid"; "slow-small" ]
    (labels front);
  (* rank puts the dominated remainder after the front, same order
     rule. *)
  Alcotest.(check (list string))
    "ranked order"
    [ "fast-big"; "mid"; "slow-small"; "dominated"; "strictly-worst" ]
    (labels (P.rank points))

let prop_front_permutation_invariant =
  QCheck.Test.make ~name:"front invariant under input permutation" ~count:200
    QCheck.(
      pair (list_of_size Gen.(int_range 0 12) (pair small_nat small_nat))
        int)
    (fun (raw, salt) ->
      let points =
        List.mapi
          (fun i (c, g) -> pt (Printf.sprintf "p%d" i) (c mod 7) (g mod 7))
          raw
      in
      let shuffled =
        (* Deterministic pseudo-shuffle: sort by a salted hash. *)
        List.sort
          (fun a b ->
            compare
              (Hashtbl.hash (salt, a.P.pt_label))
              (Hashtbl.hash (salt, b.P.pt_label)))
          points
      in
      labels (P.front points) = labels (P.front shuffled)
      && labels (P.rank points) = labels (P.rank shuffled))

let prop_front_sound_and_complete =
  QCheck.Test.make ~name:"front = exactly the non-dominated points"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 0 15) (pair small_nat small_nat))
    (fun raw ->
      let points =
        List.mapi (fun i (c, g) -> pt (Printf.sprintf "p%d" i) c g) raw
      in
      let front = P.front points in
      let dominated p = List.exists (fun q -> P.dominates q p) points in
      List.for_all (fun p -> not (dominated p)) front
      && List.for_all
           (fun p -> dominated p || List.memq p front)
           points)

(* ------------------------------------------------------------------ *)
(* Profile format                                                      *)
(* ------------------------------------------------------------------ *)

let profile = Alcotest.testable (Fmt.of_to_string Xp.canonical) ( = )

let test_profile_defaults () =
  match Xp.parse "" with
  | Error e -> Alcotest.failf "empty profile rejected: %s" e
  | Ok p ->
      Alcotest.check profile "empty text = defaults" Xp.default p;
      Alcotest.(check int) "8 archs by default" 8 (Xp.n_candidates p)

let test_profile_parse () =
  let text =
    "# comment\n\
     seed = 7\n\
     transactions = 12\n\
     pes = 3\n\
     archs = ccba, bfba, ccba\n\
     widths = 32, 16\n\
     depths = 4\n\
     arbs = rr, priority\n\
     protect = both\n\
     faults = 5\n\
     fault_seed = 9\n"
  in
  match Xp.parse text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok p ->
      Alcotest.(check int) "seed" 7 p.Xp.seed;
      Alcotest.(check int) "dedup keeps first occurrence" 2
        (List.length p.Xp.archs);
      Alcotest.(check (list int)) "width order preserved" [ 32; 16 ]
        p.Xp.widths;
      Alcotest.(check (list bool)) "both = false,true" [ false; true ]
        p.Xp.protect;
      Alcotest.(check int) "grid size" (2 * 2 * 1 * 2 * 2)
        (Xp.n_candidates p);
      (* Canonical round-trip: parse . canonical = identity. *)
      (match Xp.parse (Xp.canonical p) with
      | Ok p' ->
          Alcotest.check profile "canonical round-trip" p p';
          Alcotest.(check string) "hash stable" (Xp.hash p) (Xp.hash p')
      | Error e -> Alcotest.failf "canonical text rejected: %s" e);
      Alcotest.(check int) "hash is 16 hex digits" 16
        (String.length (Xp.hash p));
      String.iter
        (fun ch ->
          Alcotest.(check bool) "hex digit" true
            ((ch >= '0' && ch <= '9') || (ch >= 'a' && ch <= 'f')))
        (Xp.hash p)

let test_profile_errors () =
  let bad what text expect =
    match Xp.parse text with
    | Ok _ -> Alcotest.failf "%s: accepted %S" what text
    | Error msg ->
        let contains needle =
          let n = String.length msg and m = String.length needle in
          let rec go i =
            i + m <= n && (String.sub msg i m = needle || go (i + 1))
          in
          go 0
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s: %S mentions %S" what msg expect)
          true (contains expect)
  in
  bad "unknown key" "width = 16\n" "line 1";
  bad "bad arch" "archs = martian\n" "martian";
  bad "bad width" "widths = 12\n" "width";
  bad "depth not pow2" "depths = 6\n" "depth";
  bad "pes range" "pes = 1\n" "pes";
  bad "txn range" "transactions = 0\n" "transactions";
  bad "not a number" "seed = banana\n" "seed";
  bad "missing =" "just words\n" "line 1"

(* ------------------------------------------------------------------ *)
(* Score codec                                                         *)
(* ------------------------------------------------------------------ *)

let test_score_codec () =
  let s =
    {
      X.sc_label = "ccba/w32/d4/rr/prot";
      sc_arch = "ccba";
      sc_width = 32;
      sc_depth = 4;
      sc_arb = "rr";
      sc_protect = true;
      sc_gates = 12345;
      sc_cycles = 678;
      sc_transactions = 40;
      sc_mismatches = 0;
      sc_rel_num = 7;
      sc_rel_den = 8;
      sc_detected = 3;
    }
  in
  (match X.decode_score (X.encode_score s) with
  | Ok s' -> Alcotest.(check bool) "lossless round-trip" true (s = s')
  | Error e -> Alcotest.failf "decode failed: %s" e);
  (match X.decode_score "garbage" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ());
  (* A truncated payload must be a decode error, not a crash. *)
  let enc = X.encode_score s in
  match X.decode_score (String.sub enc 0 (String.length enc / 2)) with
  | Ok _ -> Alcotest.fail "truncated payload accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* End-to-end determinism                                              *)
(* ------------------------------------------------------------------ *)

let small_profile () =
  match
    Xp.parse
      "seed = 11\n\
       transactions = 10\n\
       archs = bfba, ggba, ccba\n\
       widths = 16\n\
       depths = 4, 8\n\
       arbs = priority\n"
  with
  | Ok p -> p
  | Error e -> Alcotest.failf "small profile: %s" e

let test_grid_order () =
  let p = small_profile () in
  let cands = X.candidates p in
  Alcotest.(check int) "grid size" 6 (Array.length cands);
  Alcotest.(check (list string))
    "arch-major, then depth"
    [
      "bfba/w16/d4/priority"; "bfba/w16/d8/priority";
      "ggba/w16/d4/priority"; "ggba/w16/d8/priority";
      "ccba/w16/d4/priority"; "ccba/w16/d8/priority";
    ]
    (Array.to_list (Array.map X.label cands))

let test_jobs_byte_identity () =
  let p = small_profile () in
  let front r = Json.to_string (X.front_json r) in
  let j1 = front (X.run ~jobs:1 p) in
  let j4 = front (X.run ~jobs:4 p) in
  Alcotest.(check string) "-j 4 front == -j 1 front" j1 j4;
  Alcotest.(check string) "report text too"
    (X.report_text (X.run ~jobs:1 p))
    (X.report_text (X.run ~jobs:4 p));
  (* The scored grid survives the reliability denominators: no fault
     campaign pins rel to 1/1, never 0/0. *)
  let r = X.run ~jobs:1 p in
  List.iter
    (fun pnt ->
      Alcotest.(check bool) "den >= 1" true (pnt.P.pt_rel_den >= 1))
    (X.points r)

(* The fault watch reads protection taps through engine handles: native
   cells on the tape, by-name calls on ref and slot.  All three must
   give the same score, detection count included. *)
let test_score_engines_agree () =
  let p =
    match
      Xp.parse
        "seed = 5\n\
         transactions = 40\n\
         archs = gbaviii, ccba\n\
         widths = 16\n\
         depths = 4\n\
         arbs = priority\n\
         protect = on\n\
         faults = 8\n\
         fault_seed = 4\n"
    with
    | Ok p -> p
    | Error e -> Alcotest.failf "profile: %s" e
  in
  let detected = ref 0 and lost = ref 0 in
  Array.iter
    (fun c ->
      let tape = X.score ~engine:E.Tape p c in
      detected := !detected + tape.X.sc_detected;
      lost := !lost + tape.X.sc_rel_den - tape.X.sc_rel_num;
      List.iter
        (fun kind ->
          let s = X.score ~engine:kind p c in
          Alcotest.(check string)
            (X.label c ^ " on " ^ E.kind_to_string kind)
            (X.encode_score tape) (X.encode_score s))
        [ E.Ref; E.Slot ])
    (X.candidates p);
  (* This campaign exercises both outcomes the watch can change. *)
  Alcotest.(check bool) "some fault was flagged" true (!detected > 0);
  Alcotest.(check bool) "some fault corrupted traffic" true (!lost > 0)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_front_permutation_invariant; prop_front_sound_and_complete ]

let () =
  Alcotest.run "explore"
    [
      ( "pareto",
        [
          Alcotest.test_case "dominance" `Quick test_dominance;
          Alcotest.test_case "ties and duplicates" `Quick
            test_identical_points_never_dominate;
          Alcotest.test_case "hand-built front" `Quick test_front_hand_built;
        ] );
      ( "profile",
        [
          Alcotest.test_case "defaults" `Quick test_profile_defaults;
          Alcotest.test_case "parse and canonical" `Quick test_profile_parse;
          Alcotest.test_case "error messages" `Quick test_profile_errors;
        ] );
      ( "codec",
        [ Alcotest.test_case "score round-trip" `Quick test_score_codec ] );
      ( "run",
        [
          Alcotest.test_case "grid order" `Quick test_grid_order;
          Alcotest.test_case "engines agree on faulted scores" `Quick
            test_score_engines_agree;
          Alcotest.test_case "jobs byte-identity" `Slow
            test_jobs_byte_identity;
        ] );
      ("properties", qcheck_cases);
    ]
