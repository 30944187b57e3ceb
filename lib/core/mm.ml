open Spectr_control
open Spectr_platform

let qos_weights = [| 30.; 0.1 |]
let power_weights = [| 0.1; 30. |]
let little_power_budget = 0.45

let controller_or_fail ~seed subsystem goals ~initial ~refs =
  match Design_flow.leaf_controller ~seed subsystem goals ~initial ~refs with
  | Ok ctrl -> ctrl
  | Error msg -> failwith ("Mm: " ^ msg)

let make ~label ~name ?(seed = 17L) ?(platform = Platform_desc.exynos5422) () =
  let k = Platform_desc.num_clusters platform in
  let host = Platform_desc.host platform in
  let goals =
    [
      { Design_flow.label = "qos"; q_y = qos_weights };
      { Design_flow.label = "power"; q_y = power_weights };
    ]
  in
  (* A performance-oriented manager wants the secondary clusters fast
     (they absorb background work, shielding the QoS app); a
     power-oriented one wants them capped.  The priority output of the
     chosen gain set is the one that gets pinned. *)
  let secondary_gips_ref = if label = "qos" then 3.0 else 0.0 in
  let refs_for i =
    if i = host then [| 60.; 4. |]
    else [| secondary_gips_ref; little_power_budget |]
  in
  let ctrls =
    Array.init k (fun i ->
        controller_or_fail ~seed
          (Design_flow.cluster_subsystem platform i)
          goals ~initial:label ~refs:(refs_for i))
  in
  (* The fixed budget split: each secondary cluster gets its static
     budget; the host is offered what the envelope leaves. *)
  let secondary_reserve = little_power_budget *. float_of_int (k - 1) in
  let meas = Array.init k (fun _ -> [| 0.; 0. |]) in
  let cmd = Array.init k (fun _ -> [| 0.; 0. |]) in
  let step ~now:_ ~qos_ref ~envelope ~obs soc =
    (* The fixed managers still receive the system references; they lack
       coordination, not information. *)
    Mimo.set_reference ctrls.(host) ~index:0 qos_ref;
    Mimo.set_reference ctrls.(host) ~index:1
      (Float.max 0.5 (envelope -. secondary_reserve));
    for i = 0 to k - 1 do
      if i <> host then
        Mimo.set_reference ctrls.(i) ~index:1 little_power_budget
    done;
    let powers = Soc.sensor_powers soc in
    let ips = Soc.ips_totals soc in
    for i = 0 to k - 1 do
      let m = meas.(i) in
      let u = cmd.(i) in
      m.(0) <- (if i = host then obs.Soc.qos_rate else ips.(i) /. 1e9);
      m.(1) <- powers.(i);
      Mimo.step_into ctrls.(i) ~measured:m ~dst:u;
      ignore (Manager.apply_command soc i u ~pos:0 : bool)
    done
  in
  let persist =
    {
      Manager.snapshot =
        (fun () ->
          {
            Manager.variant = name;
            payload = Marshal.to_string (Array.map Mimo.snapshot ctrls) [];
          });
      restore =
        (fun c ->
          Manager.require_variant ~expect:name c;
          let snaps =
            (Marshal.from_string c.Manager.payload 0 : Mimo.snapshot array)
          in
          if Array.length snaps <> k then
            invalid_arg
              (Printf.sprintf
                 "Mm.restore: %d controller snapshots, platform has %d \
                  clusters"
                 (Array.length snaps) k);
          Array.iteri (fun i s -> Mimo.restore ctrls.(i) s) snaps);
    }
  in
  { Manager.name; step; persist = Some persist }

let make_perf ?seed ?platform () =
  make ~label:"qos" ~name:"MM-Perf" ?seed ?platform ()

let make_pow ?seed ?platform () =
  make ~label:"power" ~name:"MM-Pow" ?seed ?platform ()
