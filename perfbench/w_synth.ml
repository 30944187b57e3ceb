(* synth-scale: cold supervisor synthesis with no ticks, on the
   cluster/budget family of bench/synthesis_scale.ml (k three-state
   cluster plants against a shared "at most cap active" budget spec).

   A round solves every size with both engines: monolithic —
   Compose.all, then Synth_cache.supcon with the cache cleared first —
   and modular through Synthesis.supcon_modular, each verified.  The
   timed window runs on one domain: on a 2-vCPU host shared with other
   tenants, 2-domain wall time swung by 2x with the neighbours' load.
   After the window every kind runs once at jobs=nproc, printed with
   its wall time, and the traced run reports the modular engine's
   jobs=1 against jobs=nproc speedup.

   Op: one verified synthesis.  It fails when synthesis raises, returns
   Empty_supervisor or fails verification; the result is incorrect when
   a digest differs between rounds or between jobs=1 and jobs=nproc. *)

open Spectr_automata

(* The (k, cap) sizes of one round.  Each phase of a synthesis takes at
   most about 20 ms, short enough for best-of-N to find the host's quiet
   moments; k=9 cap=8 units (0.5 s) spread 25 % between runs, and k=12
   cap=9 peaks at 1.6 GB of heap. *)
let sizes = [ (4, 3); (5, 4); (6, 5); (7, 6) ]

let cluster i =
  let start = Event.controllable (Printf.sprintf "start%d" i) in
  let finish = Event.uncontrollable (Printf.sprintf "done%d" i) in
  let overheat = Event.uncontrollable (Printf.sprintf "overheat%d" i) in
  let cool = Event.controllable (Printf.sprintf "cool%d" i) in
  Automaton.create ~marked:[ "Idle" ]
    ~name:(Printf.sprintf "Cluster%d" i)
    ~initial:"Idle"
    ~transitions:
      [
        ("Idle", start, "Busy");
        ("Busy", finish, "Idle");
        ("Busy", overheat, "Hot");
        ("Hot", cool, "Idle");
      ]
    ()

let budget_spec ~k ~cap =
  let state j = Printf.sprintf "B%d" j in
  let transitions = ref [] in
  let add t = transitions := t :: !transitions in
  for i = 1 to k do
    let start = Event.controllable (Printf.sprintf "start%d" i) in
    let finish = Event.uncontrollable (Printf.sprintf "done%d" i) in
    let overheat = Event.uncontrollable (Printf.sprintf "overheat%d" i) in
    let cool = Event.controllable (Printf.sprintf "cool%d" i) in
    for j = 0 to cap - 1 do
      add (state j, start, state (j + 1));
      add (state j, overheat, state j)
    done;
    for j = 1 to cap do
      add (state j, finish, state (j - 1));
      add (state j, cool, state (j - 1))
    done;
    add (state cap, overheat, "Over")
  done;
  Automaton.create ~marked:[ state 0 ] ~forbidden:[ "Over" ]
    ~name:(Printf.sprintf "Budget%d" cap)
    ~initial:(state 0) ~transitions:!transitions ()

(* The seed permutes the cluster order of the plant list: the same
   family, composed in a seed-dependent order. *)
let plants seed k =
  let a = Array.init k (fun i -> cluster (i + 1)) in
  let g = Spectr_linalg.Prng.create (Common.mix seed k) in
  for i = k - 1 downto 1 do
    let j = Spectr_linalg.Prng.int g (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

type engine = Monolithic | Modular

let engine_name = function Monolithic -> "monolithic" | Modular -> "modular"

type result = {
  compose_s : float;  (** 0 for the modular engine. *)
  synth_s : float;
  verify_s : float;
  digest : string;
  stats : Synthesis.stats;
}

let total x = x.compose_s +. x.synth_s +. x.verify_s

(* One verified synthesis.  It starts on a collected heap, so the
   major-GC work it pays is its own garbage, not the previous unit's.
   Monolithic: Compose.all, then Synth_cache.supcon with the cache
   cleared; verified non-blocking and controllable.  Modular:
   supcon_modular on [jobs] domains; verified non-blocking. *)
let synthesize ctx ~jobs engine (plants, spec) =
  let span name f = Common.span ctx name f in
  Gc.full_major ();
  let plant, compose_s =
    match engine with
    | Monolithic ->
        let p, t = Layers.timed (fun () -> span "compose.all" (fun () -> Compose.all plants)) in
        (Some p, t)
    | Modular -> (None, 0.)
  in
  Spectr_exec.Synth_cache.clear ();
  let res, synth_s =
    Layers.timed (fun () ->
        match plant with
        | Some plant ->
            span "synth_cache.supcon" (fun () ->
                Spectr_exec.Synth_cache.supcon ~plant ~spec)
        | None ->
            span "synthesis.supcon_modular" (fun () ->
                Synthesis.supcon_modular ~jobs ~plants ~spec ()))
  in
  match res with
  | Error Synthesis.Empty_supervisor -> failwith "Empty_supervisor"
  | Ok (sup, stats) ->
      let ok, verify_s =
        Layers.timed (fun () ->
            span "verify" (fun () ->
                Verify.is_nonblocking sup
                &&
                match plant with
                | Some plant -> Verify.is_controllable ~plant ~supervisor:sup
                | None -> true))
      in
      if not ok then failwith "verification";
      { compose_s; synth_s; verify_s; digest = Automaton.structural_digest sup; stats }

let kinds = List.concat_map (fun size -> [ (size, Monolithic); (size, Modular) ]) sizes

let run (ctx : Common.ctx) =
  let r = ctx.Common.r in
  let seed = ctx.Common.seed in
  let problems =
    Array.of_list
      (List.map (fun ((k, cap), e) -> (e, (k, cap), (plants seed k, budget_spec ~k ~cap))) kinds)
  in
  (* Synth_cache sizes its sharded engine by SPECTR_JOBS. *)
  Unix.putenv "SPECTR_JOBS" "1";
  let nproc = ctx.Common.nproc in
  (* Set-up ends with one cold synthesis of every kind: the reference
     result every timed unit must reproduce. *)
  let first =
    Array.map (fun (e, _, p) -> synthesize ctx ~jobs:1 e p) problems
  in
  Common.setup_done ctx;
  let fastest = Hashtbl.create 16 in
  let window ~seconds =
    Common.timed_window ~seconds (fun () ->
        let b0 = Ledger.alloc_b () in
        let samples =
          List.filter_map
            (fun kind ->
              let e, _, p = problems.(kind) in
              r.Ledger.attempted <- r.Ledger.attempted + 1;
              match synthesize ctx ~jobs:1 e p with
              | x ->
                  let f = first.(kind) in
                  if f.digest <> x.digest || f.stats <> x.stats then
                    Ledger.wrong r "synth-scale: kind %d result changed between rounds" kind;
                  (match Hashtbl.find_opt fastest kind with
                  | Some f when total f <= total x -> ()
                  | _ -> Hashtbl.replace fastest kind x);
                  (* Phases are timed as kinds of their own, so no unit
                     is longer than one phase. *)
                  Some
                    [
                      ((3 * kind) + 0, 0, x.compose_s);
                      ((3 * kind) + 1, 1, x.synth_s);
                      ((3 * kind) + 2, 0, x.verify_s);
                    ]
              | exception e ->
                  Ledger.fail r (Common.exn_name e);
                  None)
            (List.init (Array.length problems) Fun.id)
        in
        let samples = List.concat samples in
        (samples, Ledger.alloc_b () -. b0))
  in
  let largest = Array.length problems - 2 in
  if ctx.Common.trace then begin
    Common.traced_halves ctx window;
    Common.obs_metrics ctx;
    let config =
      Spectr.Scenario.default_config ~seed:(Common.mix seed 0)
        Spectr_platform.Benchmarks.x264
    in
    let m = Hashtbl.find fastest largest and q = Hashtbl.find fastest (largest + 1) in
    Layers.ledger ctx ~label:"SPECTR" ~config
      ~make:(fun () -> fst (Spectr.Spectr_manager.make ()))
      ~cells:(Layers.probe_cells seed 4) ~fleet:Layers.small_fleet
      ~synth:
        (`Sample
          {
            Layers.compose_s = m.compose_s;
            supcon_s = m.synth_s;
            modular_s = q.synth_s;
            verify_s = m.verify_s;
            product_states = m.stats.Synthesis.product_states;
            iterations = m.stats.Synthesis.iterations;
            cache_ms = m.synth_s *. 1e3;
          });
    let _, _, p = problems.(largest + 1) in
    Layers.scaling ctx "synth-scale (modular)" (fun pool ->
        ignore (synthesize ctx ~jobs:(Spectr_exec.Pool.jobs pool) Modular p))
  end
  else begin
    let w = window ~seconds:ctx.Common.seconds in
    (* Determinism across job counts: each kind at jobs=nproc must give
       the digest and stats it gave on one domain. *)
    Array.iteri
      (fun kind (e, (k, cap), ((plants, spec) as p)) ->
        match Hashtbl.find_opt fastest kind with
        | None -> ()
        | Some b ->
            let f = first.(kind) in
            let digest, stats, t =
              match e with
              | Monolithic -> (
                  let plant = Compose.all plants in
                  match Layers.timed (fun () -> Synthesis.supcon_par ~jobs:nproc ~plant ~spec ()) with
                  | Ok (sup, st), t -> (Automaton.structural_digest sup, st, t)
                  | Error _, t -> ("empty", f.stats, t))
              | Modular ->
                  let x = synthesize ctx ~jobs:nproc Modular p in
                  (x.digest, x.stats, x.synth_s)
            in
            if digest <> f.digest || stats <> f.stats then
              Ledger.wrong r "synth-scale: %s k=%d differs at jobs=%d" (engine_name e) k nproc;
            Printf.printf
              "k=%d cap=%d %-10s product %6d states: best %.6f s on 1 domain \
               (compose %.6f, synthesis %.6f, verify %.6f); %.6f s at jobs=%d\n"
              k cap (engine_name e) f.stats.Synthesis.product_states (total b)
              b.compose_s b.synth_s b.verify_s t nproc)
      problems;
    Common.e2e ctx w;
    let best e = Hashtbl.find fastest (largest + match e with Monolithic -> 0 | Modular -> 1) in
    Printf.printf "synth_monolithic_s %.6f s, synth_modular_s %.6f s (largest size, one domain)\n"
      (best Monolithic).synth_s (best Modular).synth_s
  end
