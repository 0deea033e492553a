(* The repository benchmark: four workloads timed from one
   single-threaded process.  See README.md for the workloads, the
   metrics and how to run it.

   A job is one input through one public entry point; a round runs
   every job of the workload once, in an order drawn from the seed.
   Every job gets a fresh BDD manager and its input rebuilt outside the
   timed span, with a compaction in between, so no job inherits warm
   tables from another.  The first round is a discarded warm-up. *)

(* Deterministic budgets inside the measured code; wall-clock budgets
   pushed out of reach. *)
let exact_nodes_budget = 4_000_000
let no_deadline = 1e9

type outcome = {
  luts : int;
  clbs : int;
  depth : int;
  luts_removed : int;
  decided : int;
  total_nodes : int;
  counters : (string * float) list;  (* this job's; summed over a round *)
  fingerprint : string;  (* outputs and work counters, for determinism *)
  check : unit -> (unit, string) result;  (* the untimed output check *)
}

type job = {
  name : string;
  (* Untimed preparation; returns the timed call and the reader of its
     result. *)
  prepare : unit -> (unit -> unit) * (unit -> outcome);
}

let no_result =
  {
    luts = 0;
    clbs = 0;
    depth = 0;
    luts_removed = 0;
    decided = 0;
    total_nodes = 0;
    counters = [];
    fingerprint = "";
    check = (fun () -> Ok ());
  }

let get r = match !r with Some x -> x | None -> failwith "timed call produced no result"
let digest s = Digest.to_hex (Digest.string s)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let read_lines path =
  String.split_on_char '\n' (read_file path) |> List.filter (fun l -> l <> "")

let show_counters counters =
  String.concat " " (List.map (fun (n, v) -> Printf.sprintf "%s=%.0f" n v) counters)

(* ---- decomposition ---------------------------------------------- *)

let phases stats = Hashtbl.fold (fun n t acc -> (n, t) :: acc) stats.Stats.phases []

let phase_delta before stats =
  List.filter_map
    (fun (name, t) ->
      let d = t -. Option.value ~default:0. (List.assoc_opt name before) in
      if d > 0. then Some (name, d) else None)
    (phases stats)

(* Stats phase clocks as child records of the driver span; the phase
   [step] includes the [step/*] phases that [Step.run] keeps. *)
let driver_children phases =
  let child span phase subs =
    Trace.Child (span, Option.value ~default:0. (List.assoc_opt phase phases), subs)
  in
  [
    child "decomp.bound_select" "bound-select" [];
    child "symmetry.search" "symmetry" [];
    child "symmetry.commit" "symmetry-commit" [];
    child "decomp.step" "step"
      [ child "decomp.step2" "step/step2" []; child "decomp.step3" "step/step3" [] ];
  ]

(* [Mulop.run] with a span around each layer call, for the traced run.
   Its outputs are held to those of [Mulop.run] by the per-job
   fingerprint check. *)
let mulop_traced ~lut ~objective ~stats m algorithm spec =
  let run_with obj =
    let cfg = Mulop.config_of ~lut_size:lut ~objective:obj algorithm in
    let before = phases stats in
    let report =
      Trace.span "decomp.driver"
        ~children:(fun _ -> driver_children (phase_delta before stats))
        (fun () -> Driver.decompose_report ~cfg ~stats m spec)
    in
    let net, nstats =
      Trace.span "network.sweep" (fun () ->
          let net = Network.sweep report.Driver.network in
          (net, Network.stats net))
    in
    let policy =
      match algorithm with
      | Mulop.Mulop_ii | Mulop.Mulop_dc -> Clb.First_fit
      | Mulop.Mulop_dc_ii -> Clb.Max_matching
    in
    {
      Mulop.algorithm;
      network = net;
      lut_count = nstats.Network.lut_count;
      clb_count = Trace.span "decomp.clb" (fun () -> Clb.clb_count ~lut_size:lut policy net);
      depth = nstats.Network.depth;
      step_count = report.Driver.step_count;
      shannon_count = report.Driver.shannon_count;
      alpha_count = report.Driver.alpha_count;
      degraded_to = report.Driver.degraded_to;
      findings = report.Driver.findings;
    }
  in
  match objective with
  | Cost.Area -> run_with Cost.Area
  | obj ->
      let cand = run_with obj in
      let base = run_with Cost.Area in
      let key o =
        match obj with
        | Cost.Delay -> (o.Mulop.depth, o.Mulop.lut_count, o.Mulop.clb_count)
        | Cost.Balanced | Cost.Area ->
            (o.Mulop.lut_count + o.Mulop.depth, o.Mulop.depth, o.Mulop.lut_count)
      in
      if key cand <= key base then cand else base

let decomp_job ~table ~name ~build ~algorithm ~lut ~objective =
  let prepare () =
    let m = Bdd.manager () in
    let spec = Trace.span "benchmarks.spec" (fun () -> build m) in
    let stats = Stats.create () in
    let out = ref None in
    let timed () =
      out :=
        Some
          (if !Trace.enabled then mulop_traced ~lut ~objective ~stats m algorithm spec
           else Mulop.run ~lut_size:lut ~objective ~stats m algorithm spec)
    in
    let finish () =
      let o = get out in
      let c = Stats.counter stats in
      let counters =
        [
          ("decomp.score_calls", c "score_calls");
          ("decomp.score_hits", c "score_hits");
          ("decomp.cof_lookups", c "cof_lookups");
          ("decomp.cof_reused", c "cof_hits" + c "cof_extends");
          ("decomp.restricts", c "restricts");
          ("decomp.steps", o.Mulop.step_count);
          ("decomp.shannon", o.Mulop.shannon_count);
          ("bdd.nodes", Bdd.node_count m);
        ]
        |> List.map (fun (n, v) -> (n, float v))
      in
      let degraded = o.Mulop.degraded_to <> Budget.Full || Stats.degradations stats <> [] in
      {
        no_result with
        luts = o.Mulop.lut_count;
        clbs = o.Mulop.clb_count;
        depth = o.Mulop.depth;
        counters;
        fingerprint =
          Printf.sprintf "%s luts=%d clbs=%d depth=%d %s"
            (digest (Blif.print o.Mulop.network))
            o.Mulop.lut_count o.Mulop.clb_count o.Mulop.depth (show_counters counters);
        check =
          (fun () ->
            if degraded then Error "decomposition degraded"
            else Oracle.decomposition ~k:lut table o.Mulop.network);
      }
    in
    (timed, finish)
  in
  { name; prepare }

let catalogue name = (Mcnc.find name).Mcnc.build

(* Set-up work for one input circuit: build its spec on a scratch
   manager and tabulate the oracle's expected outputs. *)
let circuit ~rng (name, build) = (name, build, Oracle.spec_table rng (build (Bdd.manager ())))

let decomp_large ~rng seed =
  let vg2 = Mcnc.find "vg2" in
  (* A held-out input: cones drawn from the seed with vg2's input and
     output counts at the default cone density.  It stays well below b9,
     so it never becomes the median job and moves the round totals
     little. *)
  let drawn m =
    Randnet.spec_of_network m
      (Randnet.cones ~ninputs:vg2.Mcnc.ninputs ~noutputs:vg2.Mcnc.noutputs ~seed ())
  in
  List.map
    (fun (name, build, table) ->
      decomp_job ~table ~name ~build ~algorithm:Mulop.Mulop_dc ~lut:5 ~objective:Cost.Area)
  @@ List.map (circuit ~rng)
    [
      ("apex7", catalogue "apex7");
      ("duke2", catalogue "duke2");
      ("b9", catalogue "b9");
      ("vg2", catalogue "vg2");
      (Printf.sprintf "cones%d@vg2" seed, drawn);
    ]

let decomp_sweep ~rng =
  let circuits =
    List.map (fun n -> (n, catalogue n))
      [ "5xp1"; "9sym"; "alu2"; "clip"; "f51m"; "misex1"; "misex2"; "rd73"; "rd84"; "sao2";
        "z4ml"; "C499"; "e64" ]
    @ List.filter
        (fun (n, _) -> List.mem n [ "rd53"; "sym6"; "maj9"; "parity12"; "t481" ])
        Extra.catalogue
  in
  List.concat_map
    (fun (circuit, build, table) ->
      List.concat_map
        (fun algorithm ->
          List.concat_map
            (fun lut ->
              List.map
                (fun (oname, objective) ->
                  let name =
                    Printf.sprintf "%s/%s/k%d/%s" circuit (Mulop.algorithm_name algorithm) lut
                      oname
                  in
                  decomp_job ~table ~name ~build ~algorithm ~lut ~objective)
                [ ("area", Cost.Area); ("delay", Cost.Delay) ])
            [ 4; 5; 6 ])
        [ Mulop.Mulop_ii; Mulop.Mulop_dc; Mulop.Mulop_dc_ii ])
    (List.map (circuit ~rng) circuits)

(* ---- deep lint ---------------------------------------------------- *)

let var_of_input net =
  let tbl = Hashtbl.create 64 in
  List.iteri (fun i (name, _) -> Hashtbl.replace tbl name i) (Network.inputs net);
  Hashtbl.find tbl

let coverage_children _ (r : Semantics.report) =
  let c = r.Semantics.coverage in
  [
    Trace.Child ("check.dataflow", c.Semantics.wall_dataflow, []);
    Trace.Child ("check.exact", c.Semantics.wall_exact, []);
    Trace.Child ("sat.windows", c.Semantics.wall_sat, []);
  ]

(* A fixture, parsed once at set-up and held to the analyzers'
   precondition of structural soundness. *)
let fixture ~dir name =
  let text = read_file (Filename.concat dir (name ^ ".blif")) in
  let net = Blif.parse text in
  if Diagnostic.errors (Net_check.analyze ~style:false net) <> [] then
    failwith (name ^ ": fixture is structurally unsound");
  (text, net)

(* [steps = None]: the exact engine under its node budget;
   [Some n]: an [n]-poll exact budget, so SAT windows decide the rest. *)
let lint_job ~dir ~name ~steps =
  let text, _ = fixture ~dir name in
  let reference = List.sort compare (read_lines (Filename.concat dir (name ^ ".ref"))) in
  let prepare () =
    let m = Bdd.manager () in
    let out = ref None in
    let timed () =
      let net = Trace.span "blif.parse" (fun () -> Blif.parse text) in
      let check =
        match steps with
        | Some n -> Careflow.step_limiter ~max_steps:n ()
        | None -> Careflow.limiter ~max_nodes:exact_nodes_budget m ()
      in
      out :=
        Some
          (Trace.span "check.analyze"
             ~children:(coverage_children ())
             (fun () ->
               Semantics.analyze_report ~check ~sat_timeout:no_deadline m
                 ~var_of_input:(var_of_input net) net))
    in
    let finish () =
      let r = get out in
      let c = r.Semantics.coverage in
      let counters =
        [
          ("check.exact_nodes", c.Semantics.exact_nodes);
          ("check.windowed_nodes", c.Semantics.windowed_nodes);
          ("check.truncated_nodes", c.Semantics.truncated_nodes);
          ("check.df_iterations", c.Semantics.df_iterations);
          ("check.df_facts", c.Semantics.df_facts);
          ("check.screened_out", c.Semantics.screened_out);
          ("sat.calls", c.Semantics.sat_calls);
          ("sat.conflicts", c.Semantics.sat_conflicts);
          ("sat.windows_built", c.Semantics.windows_built);
          ("bdd.nodes", Bdd.node_count m);
        ]
        |> List.map (fun (n, v) -> (n, float v))
      in
      let found = r.Semantics.findings in
      {
        no_result with
        decided = c.Semantics.exact_nodes + c.Semantics.windowed_nodes;
        total_nodes = c.Semantics.total_nodes;
        counters;
        fingerprint =
          digest (String.concat "\n" (List.map Oracle.finding_line found))
          ^ " " ^ show_counters counters;
        check =
          (fun () ->
            if c.Semantics.truncated_nodes > 0 then
              Error (Printf.sprintf "%d node(s) truncated" c.Semantics.truncated_nodes)
            else if steps = None && c.Semantics.exact_nodes <> c.Semantics.total_nodes then
              Error "exact engine did not finish within its node budget"
            else Oracle.findings ~exact:(steps = None) ~reference found);
      }
    in
    (timed, finish)
  in
  { name = (if steps = None then name else name ^ "/windowed"); prepare }

let lint_deep ~dir =
  List.map (fun name -> lint_job ~dir ~name ~steps:None)
    [ "count"; "vg2"; "b9"; "f51m"; "e64"; "alu2" ]
  @ List.map (fun name -> lint_job ~dir ~name ~steps:(Some 1)) [ "apex7"; "duke2"; "rot" ]

(* ---- optimize ----------------------------------------------------- *)

let optimize_job ~rng ~dir ~name =
  let text, golden = fixture ~dir name in
  let table = Oracle.network_table rng golden in
  let prepare () =
    let m = Bdd.manager () in
    let stats = Stats.create () in
    let out = ref None in
    let timed () =
      let net = Trace.span "blif.parse" (fun () -> Blif.parse text) in
      out :=
        Some
          (Trace.span "decomp.optimize" (fun () ->
               Optimize.run ~analysis_nodes:exact_nodes_budget ~analysis_timeout:no_deadline
                 ~stats m net))
    in
    let finish () =
      let o = get out in
      let c = Stats.counter stats in
      let counters =
        [
          ("optimize.passes", o.Optimize.passes);
          ("optimize.reverted", o.Optimize.reverted);
          ("check.df_iterations", c "df_iterations");
          ("check.df_facts", c "df_facts");
          ("check.screened_out", c "screened_out");
          ("sat.calls", c "sat_calls");
          ("sat.conflicts", c "sat_conflicts");
          ("sat.windows_built", c "windows_built");
          ("bdd.nodes", Bdd.node_count m);
        ]
        |> List.map (fun (n, v) -> (n, float v))
      in
      let net = o.Optimize.network in
      let nstats = Network.stats net in
      {
        no_result with
        luts = o.Optimize.luts_after;
        clbs = o.Optimize.clbs_after;
        depth = nstats.Network.depth;
        luts_removed = o.Optimize.luts_before - o.Optimize.luts_after;
        counters;
        fingerprint = digest (Blif.print net) ^ " " ^ show_counters counters;
        check =
          (fun () ->
            if c "sem_truncations" > 0 then Error "analysis truncated"
            else if o.Optimize.audit <> [] then Error "optimizer's own audit failed"
            else Oracle.equivalence ~table ~golden ~candidate:net);
      }
    in
    (timed, finish)
  in
  { name; prepare }

let optimize_audit ~rng ~dir =
  List.map (fun name -> optimize_job ~rng ~dir ~name) [ "vg2"; "b9"; "count"; "dc_dups"; "dc_dead" ]

let workloads = [ "decomp_large"; "decomp_sweep"; "lint_deep"; "optimize_audit" ]

let jobs_of ~fixtures ~seed workload =
  let rng = Random.State.make [| seed; 17 |] in
  match workload with
  | "decomp_large" -> decomp_large ~rng seed
  | "decomp_sweep" -> decomp_sweep ~rng
  | "lint_deep" -> lint_deep ~dir:fixtures
  | "optimize_audit" -> optimize_audit ~rng ~dir:fixtures
  | w -> invalid_arg ("unknown workload " ^ w)

(* ---- rounds ------------------------------------------------------- *)

let unprobed = ({ Probe.time = Probe.nominal_s; at = 0. }, { Probe.time = Probe.nominal_s; at = 0. })

type sample = {
  job : string;
  wall : float;
  bracket : Probe.point * Probe.point;  (* the probe points on either side *)
  alloc : float;  (* bytes *)
  minor_words : float;
  major_words : float;
  major_collections : int;
  res : outcome;
  failure : string option;
}

(* First fingerprint and check verdict seen for each job: a later run
   must reproduce the fingerprint, and an identical output inherits the
   verdict. *)
let seen : (string, string * (unit, string) result) Hashtbl.t = Hashtbl.create 512

let judge name (res : outcome) =
  match Hashtbl.find_opt seen name with
  | Some (fp, verdict) ->
      if fp = res.fingerprint then verdict
      else Error "output or work counters differ from an earlier run of this job"
  | None ->
      let verdict = try res.check () with e -> Error (Printexc.to_string e) in
      Hashtbl.replace seen name (res.fingerprint, verdict);
      verdict

let run_job (j : job) =
  Gc.compact ();
  incr Trace.job;
  match j.prepare () with
  | exception e ->
      {
        job = j.name;
        wall = 0.;
        bracket = unprobed;
        alloc = 0.;
        minor_words = 0.;
        major_words = 0.;
        major_collections = 0;
        res = no_result;
        failure = Some ("preparation: " ^ Printexc.to_string e);
      }
  | timed, finish ->
      let g0 = Gc.quick_stat () in
      let a0 = Gc.allocated_bytes () in
      let t0 = Mono.now () in
      let raised = try Trace.span "bench.job" timed; None with e -> Some (Printexc.to_string e) in
      let wall = Mono.now () -. t0 in
      let alloc = Gc.allocated_bytes () -. a0 in
      let g1 = Gc.quick_stat () in
      let res, failure =
        match raised with
        | Some msg -> (no_result, Some msg)
        | None -> (
            match finish () with
            | exception e -> (no_result, Some (Printexc.to_string e))
            | res -> (
                match judge j.name res with Ok () -> (res, None) | Error msg -> (res, Some msg)))
      in
      {
        job = j.name;
        wall;
        bracket = unprobed;
        alloc;
        minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
        major_words = g1.Gc.major_words -. g0.Gc.major_words;
        major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
        res;
        failure;
      }

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let round_counter = ref 0

(* [order = None] runs the jobs in their listed order.  A probe point
   comes before every [stride]-th job and after the last one; each job
   records the points on either side of it. *)
let run_round ~order ~traced jobs =
  incr round_counter;
  Trace.round := !round_counter;
  Trace.enabled := traced;
  let jobs = match order with Some rng -> shuffle rng jobs | None -> jobs in
  let n = List.length jobs in
  let stride = max 1 (n / Probe.per_round) in
  let points = Array.make (n + 1) (fst unprobed) in
  let samples =
    List.mapi
      (fun i j ->
        if i mod stride = 0 then points.(i) <- Probe.run ();
        run_job j)
      jobs
  in
  points.(n) <- Probe.run ();
  Trace.enabled := false;
  let bracket i =
    let before = i - (i mod stride) in
    (points.(before), points.(min n (before + stride)))
  in
  (!round_counter, List.mapi (fun i s -> { s with bracket = bracket i }) samples)

(* ---- statistics --------------------------------------------------- *)

(* Linear interpolation between the two nearest samples: a job
   percentile then leans on two runs of similar jobs, not one. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float (Array.length a - 1) in
      let i = int_of_float pos in
      if i + 1 >= Array.length a then a.(i)
      else a.(i) +. ((pos -. float i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0. l
let round_wall samples = sum (fun s -> s.wall) samples
let speed ~run (before, after) = Probe.factor ~run before after
let scaled ~run s = s.wall *. speed ~run s.bracket

let counter name samples =
  sum (fun s -> Option.value ~default:0. (List.assoc_opt name s.res.counters)) samples

let ratio a b = if b = 0. then 0. else a /. b

(* ---- output ------------------------------------------------------- *)

type metric = { mname : string; value : float; unit_ : string; note : string }

let metric ?(note = "") mname unit_ value = { mname; value; unit_; note }

let print_table title metrics =
  Printf.printf "%s\n" title;
  List.iter
    (fun m -> Printf.printf "  %-26s %16.6f %-6s %s\n" m.mname m.value m.unit_ m.note)
    metrics

let print_json ~correct ~attempted ~failed metrics =
  let metric m = (m.mname, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]) in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.int attempted);
            ("failed", Json.int failed);
            ("metrics", Json.Obj (List.map metric metrics));
          ]))

(* End-to-end metrics over the untraced timed rounds.  Times are
   scaled by the machine-speed probe, each job's and each set-up's by
   its own factor; [run] is the run's median probe point and [setup]
   holds (raw, bracket) pairs.  The raw figures are printed beside
   them. *)
let end_to_end ~workload ~run ~setup ~peak_heap rounds =
  let scaled = scaled ~run in
  let samples = List.concat_map snd rounds in
  let walls = List.map (fun (_, s) -> sum scaled s) rounds in
  let raw_walls = List.map (fun (_, s) -> round_wall s) rounds in
  let jobs = List.map scaled samples and raw_jobs = List.map (fun s -> s.wall) samples in
  let last = snd (List.hd (List.rev rounds)) in
  let total f = float (List.fold_left (fun acc s -> acc + f s.res) 0 last) in
  let n = List.length rounds in
  let time ?(note = "") name v raw =
    metric name "s" v ~note:(Printf.sprintf "raw %.4f s; %s" raw note)
  in
  let common =
    [
      time "setup_s"
        (median (List.map (fun (raw, b) -> raw *. speed ~run b) setup))
        (median (List.map fst setup))
        ~note:(Printf.sprintf "median of %d set-ups" (List.length setup));
      time "round_s" (median walls) (median raw_walls)
        ~note:
          (Printf.sprintf "q1 %.4f q3 %.4f over %d round(s): %s" (quantile 0.25 walls)
             (quantile 0.75 walls) n (String.concat " " (List.map (Printf.sprintf "%.3f") walls)));
      time "job_s_p50" (quantile 0.5 jobs) (quantile 0.5 raw_jobs)
        ~note:(Printf.sprintf "n=%d jobs" (List.length jobs));
      time "job_s_p90" (quantile 0.9 jobs) (quantile 0.9 raw_jobs)
        ~note:(Printf.sprintf "n=%d jobs" (List.length jobs));
      metric "alloc_mb" "MB" (median (List.map (fun (_, s) -> sum (fun x -> x.alloc) s /. 1e6) rounds));
      metric "peak_heap_mb" "MB" peak_heap ~note:"after the warm-up round";
    ]
  in
  let quality =
    match workload with
    | "decomp_large" | "decomp_sweep" | "optimize_audit" ->
        [
          metric "luts" "count" (total (fun r -> r.luts));
          metric "clbs" "count" (total (fun r -> r.clbs));
          metric "depth_max" "count" (float (List.fold_left (fun acc s -> max acc s.res.depth) 0 last));
        ]
        @
        if workload = "optimize_audit" then
          [ metric "luts_removed" "count" (total (fun r -> r.luts_removed)) ]
        else []
    | _ -> [ metric "decided_share" "ratio" (ratio (total (fun r -> r.decided)) (total (fun r -> r.total_nodes))) ]
  in
  (common, quality)

let span_sum names (spans : Trace.span list) =
  sum (fun s -> if List.mem s.Trace.name names then Trace.duration s else 0.) spans

let self_layers = [ "bench"; "benchmarks"; "decomp"; "symmetry"; "network"; "blif"; "check"; "sat" ]

(* Per-layer metrics: span times from the traced rounds, work counters
   and GC figures from the untraced ones; medians over rounds. *)
let per_layer ~untraced ~traced =
  let spans_of r = List.filter (fun s -> s.Trace.round = r) !Trace.spans in
  let over rounds f = median (List.map f rounds) in
  let timed f = over traced (fun (r, _) -> f (spans_of r)) in
  let counted f = over untraced (fun (_, s) -> f s) in
  let c name = counted (counter name) in
  let self layer =
    timed (fun spans ->
        sum (fun (s, t) -> if Trace.layer s.Trace.name = layer then t else 0.) (Trace.self_times spans))
  in
  let overhead =
    median (List.map (fun (_, s) -> round_wall s) traced)
    -. median (List.map (fun (_, s) -> round_wall s) untraced)
  in
  let s name unit_ v = metric name unit_ v in
  [
    s "decomp.driver_s" "s" (timed (span_sum [ "decomp.driver" ]));
    s "decomp.bound_select_s" "s" (timed (span_sum [ "decomp.bound_select" ]));
    s "decomp.score_calls" "count" (c "decomp.score_calls");
    s "decomp.score_hit_ratio" "ratio"
      (counted (fun x -> ratio (counter "decomp.score_hits" x) (counter "decomp.score_calls" x)));
    s "decomp.cof_reuse_ratio" "ratio"
      (counted (fun x -> ratio (counter "decomp.cof_reused" x) (counter "decomp.cof_lookups" x)));
    s "decomp.restricts" "count" (c "decomp.restricts");
    s "symmetry.s" "s" (timed (span_sum [ "symmetry.search"; "symmetry.commit" ]));
    s "decomp.step2_s" "s" (timed (span_sum [ "decomp.step2" ]));
    s "decomp.step3_s" "s" (timed (span_sum [ "decomp.step3" ]));
    s "decomp.step_other_s" "s"
      (timed (fun sp ->
           span_sum [ "decomp.step" ] sp -. span_sum [ "decomp.step2"; "decomp.step3" ] sp));
    s "decomp.steps" "count" (c "decomp.steps");
    s "decomp.shannon" "count" (c "decomp.shannon");
    s "network.sweep_s" "s" (timed (span_sum [ "network.sweep" ]));
    s "decomp.clb_s" "s" (timed (span_sum [ "decomp.clb" ]));
    s "benchmarks.spec_s" "s" (timed (span_sum [ "benchmarks.spec" ]));
    s "bdd.nodes_peak" "count"
      (counted (fun x ->
           List.fold_left
             (fun acc s -> Float.max acc (Option.value ~default:0. (List.assoc_opt "bdd.nodes" s.res.counters)))
             0. x));
    s "bdd.nodes_total" "count" (c "bdd.nodes");
    s "gc.minor_mw" "Mw" (counted (fun x -> sum (fun s -> s.minor_words) x /. 1e6));
    s "gc.major_mw" "Mw" (counted (fun x -> sum (fun s -> s.major_words) x /. 1e6));
    s "gc.major_collections" "count" (counted (fun x -> sum (fun s -> float s.major_collections) x));
    s "blif.parse_s" "s" (timed (span_sum [ "blif.parse" ]));
    s "check.analyze_s" "s" (timed (span_sum [ "check.analyze" ]));
    s "check.dataflow_s" "s" (timed (span_sum [ "check.dataflow" ]));
    s "check.exact_s" "s" (timed (span_sum [ "check.exact" ]));
    s "check.sat_s" "s" (timed (span_sum [ "sat.windows" ]));
    s "check.exact_nodes" "count" (c "check.exact_nodes");
    s "check.windowed_nodes" "count" (c "check.windowed_nodes");
    s "check.truncated_nodes" "count" (c "check.truncated_nodes");
    s "check.df_iterations" "count" (c "check.df_iterations");
    s "check.df_facts" "count" (c "check.df_facts");
    s "check.screened_out" "count" (c "check.screened_out");
    s "sat.calls" "count" (c "sat.calls");
    s "sat.conflicts" "count" (c "sat.conflicts");
    s "sat.windows_built" "count" (c "sat.windows_built");
    s "sat.conflicts_per_call" "ratio"
      (counted (fun x -> ratio (counter "sat.conflicts" x) (counter "sat.calls" x)));
    s "decomp.optimize_s" "s" (timed (span_sum [ "decomp.optimize" ]));
    s "optimize.passes" "count" (c "optimize.passes");
    s "optimize.reverted" "count" (c "optimize.reverted");
    s "optimize.accept_ratio" "ratio"
      (counted (fun x ->
           let a = counter "optimize.passes" x in
           ratio a (a +. counter "optimize.reverted" x)));
  ]
  @ List.map (fun l -> s ("self." ^ l ^ "_s") "s" (self l)) self_layers
  @ [ s "trace.overhead_s" "s" overhead; s "bench.probe_s" "s" (median !Probe.samples) ]

(* ---- running a workload ------------------------------------------- *)

let failures rounds =
  List.concat_map (fun (_, samples) -> List.filter (fun s -> s.failure <> None) samples) rounds

let report_failures fs =
  List.iter
    (fun s -> Printf.printf "FAILED %s: %s\n" s.job (Option.value ~default:"" s.failure))
    fs

(* Run rounds until [seconds] have elapsed, at least [min_rounds]. *)
let timed_rounds ?(min_rounds = 1) ~order ~traced ~seconds jobs =
  let t0 = Mono.now () in
  let rec go n acc =
    let acc = run_round ~order ~traced jobs :: acc in
    if n + 1 < min_rounds || Mono.now () -. t0 < seconds then go (n + 1) acc else List.rev acc
  in
  go 0 []

(* The fewest timed rounds of an untraced run.  Most of an
   [optimize_audit] round is one 6 s job (count) whose time follows the
   probe least of all, so only more runs of it steady [round_s] and
   [job_s_p90] there. *)
let min_rounds = function "optimize_audit" -> 3 | _ -> 1

let setup_reps = 9

let started = Mono.now ()

let measure ~fixtures ~workload ~seed ~seconds ~trace ~out_dir =
  (* Set-up: load the fixtures and build each distinct input once,
     with the oracle's expected outputs. *)
  let setup_once () =
    Gc.compact ();
    let before = Probe.run () in
    let t0 = Mono.now () in
    let jobs = jobs_of ~fixtures ~seed workload in
    let wall = Mono.now () -. t0 in
    ((wall, (before, Probe.run ())), jobs)
  in
  let setups = List.init setup_reps (fun _ -> setup_once ()) in
  let setup = List.map fst setups in
  let jobs = snd (List.hd setups) in
  let order = Random.State.make [| seed; 31 |] in
  (* The warm-up runs the jobs in their listed order, so the heap top it
     leaves does not depend on the seed's order. *)
  let warmup = run_round ~order:None ~traced:false jobs in
  let peak_heap = float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6 in
  let order = Some order in
  let untraced, traced =
    if trace then
      let u = timed_rounds ~order ~traced:false ~seconds:(seconds /. 2.) jobs in
      (u, timed_rounds ~order ~traced:true ~seconds:(seconds /. 2.) jobs)
    else (timed_rounds ~min_rounds:(min_rounds workload) ~order ~traced:false ~seconds jobs, [])
  in
  let all = (warmup :: untraced) @ traced in
  let failed = failures all in
  let attempted = List.length (List.concat_map snd all) in
  report_failures failed;
  let run = Probe.run_median () in
  let common, quality = end_to_end ~workload ~run ~setup ~peak_heap untraced in
  let speeds = List.map (fun s -> speed ~run s.bracket) (List.concat_map snd untraced) in
  Printf.printf
    "perfbench %s seed=%d: %d job(s) per round, %d timed round(s) after 1 warm-up, %.1f s in \
     all; probe median %.5f s over %d points, job speed factors %.4f-%.4f\n"
    workload seed (List.length jobs) (List.length untraced) (Mono.now () -. started)
    run (List.length !Probe.points)
    (List.fold_left Float.min infinity speeds) (List.fold_left Float.max 0. speeds);
  if List.length jobs <= 12 then
    List.iter
      (fun (j : job) ->
        let mine = List.filter (fun s -> s.job = j.name) (List.concat_map snd untraced) in
        match mine with
        | [] -> ()
        | s :: _ ->
            Printf.printf
              "  job %-16s %9.4f s (raw %.4f)  luts %4d clbs %4d depth %2d removed %3d decided %d/%d\n"
              j.name (median (List.map (scaled ~run) mine)) (median (List.map (fun s -> s.wall) mine))
              s.res.luts s.res.clbs s.res.depth s.res.luts_removed s.res.decided s.res.total_nodes)
      jobs;
  print_table "end-to-end" (common @ quality
    @ [ metric "fail_share" "ratio" (ratio (float (List.length failed)) (float attempted)) ]);
  let metrics =
    if trace then begin
      let layer = per_layer ~untraced ~traced in
      print_table "per-layer (traced run)" layer;
      (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
      let path = Filename.concat out_dir (Printf.sprintf "trace-%s-seed%d.jsonl" workload seed) in
      Trace.write path;
      Printf.printf "spans written to %s\n" path;
      layer
    end
    else common
  in
  print_json ~correct:(failed = []) ~attempted ~failed:(List.length failed) metrics;
  0

(* Each workload's round twice; every job must reproduce its outputs
   and counters, and the round totals must agree. *)
let self_test ~fixtures =
  let order = Some (Random.State.make [| 1 |]) in
  let ok =
    List.for_all
      (fun workload ->
        Hashtbl.reset seen;
        let jobs = jobs_of ~fixtures ~seed:1 workload in
        let a = run_round ~order ~traced:false jobs in
        let b = run_round ~order ~traced:true jobs in
        let fs = failures [ a; b ] in
        report_failures fs;
        let totals r = snd (end_to_end ~workload ~run:Probe.nominal_s ~setup:[ (0., unprobed) ] ~peak_heap:0. [ r ]) in
        let same = List.map (fun m -> m.value) (totals a) = List.map (fun m -> m.value) (totals b) in
        Printf.printf "self-test %s: %s\n%!" workload
          (if fs = [] && same then "ok" else "FAILED");
        fs = [] && same)
      workloads
  in
  if ok then 0 else 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let fixtures = ref "perfbench/fixtures" and out_dir = ref "perfbench/out" in
  let self = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S how long the timed rounds run");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--fixtures", Arg.Set_string fixtures, "DIR committed input networks");
      ("--out", Arg.Set_string out_dir, "DIR where the traced run writes its spans");
      ("--self-test", Arg.Set self, " run each workload twice and compare");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let code =
    if !self then self_test ~fixtures:!fixtures
    else if not (List.mem !workload workloads) then begin
      prerr_endline ("perfbench: --workload must be one of " ^ String.concat ", " workloads);
      2
    end
    else
      measure ~fixtures:!fixtures ~workload:!workload ~seed:!seed ~seconds:!seconds
        ~trace:(!trace = 1) ~out_dir:!out_dir
  in
  exit code
