(* Timing, estimators and the measurement loop shared by every workload.

   Host noise on a small shared machine is one-sided: contention makes
   work slower, never faster.  So every timing here is a low order
   statistic over repetitions spread across the whole run — a slow
   spell moves it only if it covers every repetition behind a sample. *)

module Json = Busgen_json.Json

(* In-process work is timed with this process's CPU clock (user +
   system, getrusage: microsecond resolution), which leaves out time
   the host gives to other tenants.  Work done in other processes (the
   serve daemon) and the run's own schedule use the wall clock. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let wall = Unix.gettimeofday

let timed f =
  let t0 = cpu () in
  let r = f () in
  (r, cpu () -. t0)

(* Runs [f] and returns its result and CPU seconds.  An op cheaper
   than [budget] seconds is run again, up to [max_reps] times, and its
   fastest repetition is kept: a cheap op gets as many repetitions as a
   dear one. *)
let time_op ?(budget = 0.) ?(max_reps = 1) f =
  let rec go reps spent best =
    let r, dt = timed f in
    let best = match best with Some (_, b) when b <= dt -> best | _ -> Some (r, dt) in
    if reps + 1 < max_reps && spent +. dt < budget then go (reps + 1) (spent +. dt) best
    else Option.get best
  in
  go 0 0. None

(* ------------------------------------------------------------------ *)
(* Estimators                                                          *)
(* ------------------------------------------------------------------ *)

(* Nearest-rank percentile: the smallest sample with at least [q] of
   the samples at or below it. *)
let rank q n = max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1))

let percentile q xs =
  let a = Array.copy xs in
  Array.sort compare a;
  if Array.length a = 0 then nan else a.(rank q (Array.length a))

(* Samples strictly above the percentile's rank. *)
let beyond q n = n - 1 - rank q n

let median xs = percentile 0.5 xs

let fmin xs = Array.fold_left Float.min infinity xs

(* The samples behind op_ms_p50 / op_ms_p90.  [passes.(p).(i)] is op
   [i]'s time in pass [p].  The passes are dealt round-robin into
   [groups] sets, so each set holds passes from the start, middle and
   end of the run; a sample is one op's fastest time within one set.
   [groups] is the fewest that still leaves [min_samples] samples (the
   p90 needs ten beyond it), so every sample rests on as many spread
   repetitions as the run allows. *)
type samples = { sm_values : float array; sm_groups : int; sm_reps : int }

let op_samples ~min_samples (passes : float array array) =
  let p = Array.length passes in
  let n = Array.length passes.(0) in
  let groups = max 1 (min p ((min_samples + n - 1) / n)) in
  let reps = p / groups in
  let values =
    Array.init (groups * n) (fun j ->
        let g = j / n and i = j mod n in
        let best = ref infinity in
        for k = 0 to reps - 1 do
          best := Float.min !best passes.(g + (k * groups)).(i)
        done;
        !best)
  in
  { sm_values = values; sm_groups = groups; sm_reps = reps }

(* High-water resident set of a process, from /proc ([pid] 0 = self). *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status"
    else Printf.sprintf "/proc/%d/status" pid
  in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go () =
        let line = input_line ic in
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf
            (String.sub line 6 (String.length line - 6))
            " %d kB"
            (fun kb -> float_of_int kb /. 1024.)
        else go ()
      in
      go ())

(* ------------------------------------------------------------------ *)
(* Host speed                                                          *)
(* ------------------------------------------------------------------ *)

(* Other tenants of the host slow this one's code for minutes at a
   time, by up to 70% on the simulators.  Timing with the CPU clock
   does not remove it: the slowed instructions still run on this
   process's behalf.  So a fixed kernel of the benchmark's own — a
   dispatch loop over int arrays, the shape of the simulators' inner
   loops — is timed between passes, and every end-to-end timing of an
   in-process workload is divided by its slowdown against
   [nominal_kernel_s] (run.py pins those workloads to one CPU, so the
   kernel and the ops share a core).  In trials, through a spell that
   slowed the Machine and construction code by 70%, the kernel slowed
   with them to within about 5% (the tape engine: 12%), where a pure
   ALU loop slowed by 14%.  It allocates nothing, so no collection
   falls inside it, and no library change can move it. *)
let kernel_ops = Array.init 4096 (fun i -> (i * 2654435761) land 7)
let kernel_regs = Array.make 64 1

let kernel () =
  let regs = kernel_regs in
  for _ = 1 to 150 do
    Array.iteri
      (fun i op ->
        let a = i land 63 and b = (i * 7) land 63 in
        regs.(a) <-
          (match op with
          | 0 -> regs.(a) + regs.(b)
          | 1 -> regs.(a) lxor regs.(b)
          | 2 -> regs.(a) land regs.(b)
          | 3 -> regs.(a) lor 1
          | 4 -> regs.(b) lsr 1
          | 5 -> regs.(a) - regs.(b)
          | 6 -> if regs.(a) > regs.(b) then regs.(a) else regs.(b)
          | _ -> regs.(a) * 3)
          land 0xffff)
      kernel_ops
  done;
  ignore (Sys.opaque_identity regs.(0))

(* The kernel's time on an unloaded 2-vCPU Intel Xeon VM; it only sets
   the scale of the reported figures. *)
let nominal_kernel_s = 0.003

(* Kernel samples after a pass: about 3% of the pass's time, at least
   three. *)
let kernel_samples ~pass_s =
  let budget = 0.03 *. pass_s in
  let rec go acc spent n =
    if n >= 3 && spent >= budget then acc
    else
      let (), dt = timed kernel in
      go (dt :: acc) (spent +. dt) (n + 1)
  in
  go [] 0. 0

(* ------------------------------------------------------------------ *)
(* The measurement loop                                                *)
(* ------------------------------------------------------------------ *)

(* One pass runs every op of the workload once, in the run's seeded
   order.  [op_s] is indexed by the op's canonical index (not its
   position in the order), so repetitions of one op line up. *)
type pass = {
  op_s : float array;
  extra_s : float;  (** per-pass work outside the ops *)
  wall_s : float;  (** the whole pass, ops plus per-pass work *)
  attempted : int;
  failed : int;
}

type run = {
  untraced : pass array;
  traced : pass array;  (** empty unless tracing *)
  setup_s : float array;  (** cold set-up samples, in run order *)
  kernel_s : float array;  (** host-speed kernel samples *)
  measured_s : float;  (** the measurement window actually used *)
}

(* Run passes for [seconds].  [probes] cold set-up samples are taken at
   evenly spread moments of the window, between passes.  With [trace],
   traced and untraced passes alternate so both see the same host. *)
let drive ~seconds ~min_passes ~probes ~probe ~trace ~pass =
  let t0 = wall () in
  let deadline = t0 +. seconds in
  let hard = t0 +. (3. *. seconds) +. 60. in
  let untraced = ref [] and traced = ref [] and setup = ref [] and kernels = ref [] in
  let taken = ref 0 in
  let probe_due () =
    !taken < probes
    && wall () >= t0 +. (seconds *. (float_of_int !taken +. 0.5) /. float probes)
  in
  let k = ref 0 in
  let enough () =
    List.length !untraced >= min_passes
    && ((not trace) || List.length !traced >= min_passes)
  in
  while (wall () < deadline || not (enough ())) && wall () < hard do
    let tr = trace && !k mod 2 = 1 in
    let t_pass = wall () in
    let p = pass ~traced:tr in
    if tr then traced := p :: !traced else untraced := p :: !untraced;
    kernels := kernel_samples ~pass_s:(wall () -. t_pass) @ !kernels;
    incr k;
    while probe_due () do
      setup := probe () :: !setup;
      incr taken
    done
  done;
  let measured = wall () -. t0 in
  while !taken < probes do
    setup := probe () :: !setup;
    incr taken
  done;
  {
    untraced = Array.of_list (List.rev !untraced);
    traced = Array.of_list (List.rev !traced);
    setup_s = Array.of_list (List.rev !setup);
    kernel_s = Array.of_list (List.rev !kernels);
    measured_s = measured;
  }

(* Spawn this executable in [args] mode and read back the one number it
   prints: a cold set-up timed inside a fresh process. *)
let child_seconds args =
  let exe = Sys.executable_name in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin wr
      Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let line = try input_line ic with End_of_file -> "" in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  match (status, float_of_string_opt (String.trim line)) with
  | Unix.WEXITED 0, Some s -> s
  | _ -> failwith (Printf.sprintf "set-up probe %s failed" (String.concat " " args))

(* The probe side: time [setup] cold and print the seconds. *)
let probe_report setup =
  let (), s = timed setup in
  Printf.printf "%.9f\n" s

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

(* The five end-to-end metrics, from the untraced passes.  A
   [concurrent] workload's ops overlap, so its throughput is ops over
   the fastest pass; otherwise each op's fastest time and the fastest
   per-pass remainder add up to the pass the host could do. *)
let end_to_end ~(run : run) ~concurrent ~peak_rss =
  let passes = run.untraced in
  let ops = Array.length passes.(0).op_s in
  let times = Array.map (fun p -> p.op_s) passes in
  let sm = op_samples ~min_samples:100 times in
  let pass_s =
    if concurrent then fmin (Array.map (fun p -> p.wall_s) passes)
    else
      let best i = fmin (Array.map (fun a -> a.(i)) times) in
      List.fold_left ( +. ) 0. (List.init ops best)
      +. fmin (Array.map (fun p -> p.extra_s) passes)
  in
  let setup = Array.copy run.setup_s in
  Array.sort compare setup;
  (* Second-smallest cold sample: a low order statistic, with one
     sample of slack against a one-off outlier. *)
  let setup_s = setup.(min 1 (Array.length setup - 1)) in
  (* The host's slowdown during the run, by the same kind of estimator
     as the ops: a low order statistic of samples spread over the run.
     It divides every timing of an in-process workload, set-up
     included.  A concurrent workload's work runs in other processes,
     on another CPU than the kernel's, whose slowdown the kernel does
     not see: its timings are left as measured. *)
  let host = percentile 0.1 run.kernel_s /. nominal_kernel_s in
  let divisor = if concurrent then 1. else host in
  let metrics =
    [
      ("setup_s", setup_s /. divisor, "s");
      ("ops_per_s", float_of_int ops /. pass_s *. divisor, "1/s");
      ("op_ms_p50", 1000. *. percentile 0.5 sm.sm_values /. divisor, "ms");
      ("op_ms_p90", 1000. *. percentile 0.9 sm.sm_values /. divisor, "ms");
      ("peak_rss_mb", peak_rss, "MB");
    ]
  in
  let n = Array.length sm.sm_values in
  let facts =
    [
      ("passes", Json.Int (Array.length passes));
      ("ops_per_pass", Json.Int ops);
      ("measured_s", Json.Float run.measured_s);
      ("op_samples", Json.Int n);
      ("op_sample_groups", Json.Int sm.sm_groups);
      ("op_reps_per_sample", Json.Int sm.sm_reps);
      ("op_ms_p50_beyond", Json.Int (beyond 0.5 n));
      ("op_ms_p90_beyond", Json.Int (beyond 0.9 n));
      ("setup_samples", Json.Int (Array.length setup));
      ("setup_estimator", Json.String "2nd smallest cold sample");
      ("host_slowdown", Json.Float host);
      ("host_kernel_samples", Json.Int (Array.length run.kernel_s));
      ("timings_divided_by", Json.Float divisor);
    ]
  in
  (metrics, facts)

let metrics_json metrics =
  Json.Obj
    (List.map
       (fun (name, v, unit) ->
         (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
       metrics)
