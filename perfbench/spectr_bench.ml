(* SPECTR benchmark driver.

     spectr_bench --workload NAME --seed N --seconds S --trace 0|1

   Untraced (--trace 0): runs the workload for S seconds with the
   program's observability layer off and reports the end-to-end
   metrics.  Traced (--trace 1): half the window untraced, half with
   Spectr_obs on under the monotonic clock plus the benchmark's own
   spans, then the per-layer ledger.  The last line of stdout is the
   JSON result.

   Set-up time is the median over this process and fresh processes
   that stop at the first timed operation (--setup-only), so each
   sample is a cold start: at least 4 of them, more while they have
   taken under 2 s in all (up to 16), so a set-up of a few milliseconds
   gets enough samples to outweigh process-start jitter. *)

let workloads =
  [
    ("chip-steady", W_chip.run);
    ("chaos-campaign", W_chaos.run);
    ("fleet-waterfill", W_fleet.run);
    ("synth-scale", W_synth.run);
  ]

let usage () =
  prerr_endline
    "usage: spectr_bench --workload NAME --seed N --seconds S --trace 0|1";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map fst workloads));
  exit 2

(* Run this executable again in set-up-only mode and read its figure. *)
let child_setup_s args =
  let ic, oc = Unix.pipe ~cloexec:true () in
  let argv = Array.append [| Sys.executable_name |] (Array.append args [| "--setup-only" |]) in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin oc Unix.stderr in
  Unix.close oc;
  let chan = Unix.in_channel_of_descr ic in
  let out = In_channel.input_all chan in
  close_in chan;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> (
      let last = List.hd (List.rev (String.split_on_char '\n' (String.trim out))) in
      match String.split_on_char ' ' last with
      | [ "setup_s"; v ] -> float_of_string v
      | _ -> failwith ("set-up child printed: " ^ out))
  | _ -> failwith "set-up child failed"

let () =
  let t_start = Ledger.now_ns () in
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. in
  let trace = ref (-1) and setup_only = ref false in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--setup-only" :: rest -> setup_only := true; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  (* Internal: cold construction of one SPECTR manager, timed by the
     traced run in fresh processes. *)
  let make_cold ctx =
    ignore (Spectr.Spectr_manager.make ());
    Common.setup_done ctx
  in
  let run =
    match List.assoc_opt !workload (("make-cold", make_cold) :: workloads) with
    | Some f when !seed >= 0 && !seconds > 0. && (!trace = 0 || !trace = 1) ->
        f
    | _ -> usage ()
  in
  let ctx =
    {
      Common.seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      setup_only = !setup_only;
      nproc = Spectr_exec.Pool.default_jobs ();
      r = Ledger.result ();
      t_start;
    }
  in
  Printf.printf "workload %s, seed %d, %.0f s, trace %d, nproc %d\n%!" !workload
    !seed !seconds !trace ctx.Common.nproc;
  run ctx;
  let args =
    [| "--workload"; !workload; "--seed"; string_of_int !seed; "--seconds";
       string_of_float !seconds; "--trace"; "0" |]
  in
  if ctx.Common.trace then begin
    Ledger.Span.print ();
    (* Cold manager construction, in fresh processes: the first
       SPECTR manager of a process pays gain design and supervisor
       synthesis. *)
    let cold =
      List.init 3 (fun _ ->
          child_setup_s
            [| "--workload"; "make-cold"; "--seed"; "0"; "--seconds"; "1";
               "--trace"; "0" |])
    in
    Common.metric ctx "manager.make_cold_s" "s" (Ledger.median cold)
  end
  else begin
    let t0 = Ledger.now_ns () in
    let rec probe acc n =
      if n < 4 || (n < 16 && Ledger.secs_since t0 < 2.) then
        probe (child_setup_s args :: acc) (n + 1)
      else acc
    in
    let samples = probe [ !Common.setup_s ] 0 in
    Printf.printf "setup_s samples: %s\n"
      (String.concat " " (List.map (Printf.sprintf "%.4f") samples));
    ctx.Common.r.Ledger.metrics <-
      ctx.Common.r.Ledger.metrics @ [ ("setup_s", Ledger.median samples, "s") ]
  end;
  Ledger.emit ctx.Common.r
