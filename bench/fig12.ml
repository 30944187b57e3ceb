(* Figure 12: the supervisor synthesis pipeline on the Exynos case study
   — sub-plant models, synchronous composition, three-band specification,
   synthesized supervisor, and the two §4.3.4 property checks. *)

open Spectr_automata

let describe name a =
  Printf.printf "  %-24s %3d states %3d transitions  (marked: %s%s)\n" name
    (Automaton.num_states a)
    (Automaton.num_transitions a)
    (String.concat "," (Automaton.marked a))
    (match Automaton.forbidden a with
    | [] -> ""
    | f -> "; forbidden: " ^ String.concat "," f)

let run () =
  Util.heading "Figure 12: supervisor synthesis for the Exynos case study";
  Util.subheading "(a) sub-plant models";
  let platform = Spectr_platform.Platform_desc.exynos5422 in
  let qos_management, power_capping = Spectr.Plant_model.of_platform platform in
  describe "QoS management" qos_management;
  describe "power capping" power_capping;
  Util.subheading "(b) composed plant (automatic, || operator)";
  let plant = Spectr.Plant_model.composed_for platform in
  describe "QoSManagement||PowerCapping" plant;
  Util.subheading "(c) intended-behaviour specification";
  describe "three-band capping" (Spectr.Spec.of_platform platform);
  Util.subheading "(d) synthesized supervisor";
  (* Routed through the process-wide synthesis cache: when a scenario
     experiment ran earlier in the same invocation this is a hit. *)
  let sup, stats = Spectr.Supervisor.synthesize ~platform () in
  describe "supervisor" sup;
  Format.printf "  synthesis: %a@." Synthesis.pp_stats stats;
  (* The two §4.3.4 property checks are independent; run them on the
     pool and print in order. *)
  (match
     Spectr_exec.Parmap.map
       (fun check -> check ())
       [
         (fun () -> Verify.is_nonblocking sup);
         (fun () -> Verify.is_controllable ~plant ~supervisor:sup);
       ]
   with
  | [ nonblocking; controllable ] ->
      Printf.printf "  non-blocking check: %b\n" nonblocking;
      Printf.printf "  controllability check: %b\n" controllable
  | _ -> assert false);
  Printf.printf "  ideal state: %s (initial, marked)\n" (Automaton.initial sup);
  (* Spot-check the two supervision mechanisms of Fig. 12d. *)
  (match
     Automaton.trace sup [ Spectr.Events.qos_not_met; Spectr.Events.critical ]
   with
  | Some st ->
      let en =
        Automaton.enabled sup st |> List.map Event.name |> String.concat ", "
      in
      Printf.printf "  after critical!: state %s, enabled: %s\n" st en
  | None -> ());
  print_endline
    "\nShape check (paper): synthesis prunes the forbidden Threshold\n\
     region; the supervisor is verified non-blocking and controllable,\n\
     with gain scheduling reachable from the critical event."
