open Spectr_control
open Spectr_platform

let make ?(seed = 17L) () =
  let ctrl =
    match
      Design_flow.leaf_controller ~seed Design_flow.Fs_4x2
        [ { Design_flow.label = "power"; q_y = [| 0.1; 30. |] } ]
        ~initial:"power" ~refs:[| 60.; 5. |]
    with
    | Ok c -> c
    | Error msg -> failwith ("Fs: " ^ msg)
  in
  let meas = [| 0.; 0. |] and u = [| 0.; 0.; 0.; 0. |] in
  let step ~now:_ ~qos_ref ~envelope ~obs soc =
    Mimo.set_reference ctrl ~index:0 qos_ref;
    Mimo.set_reference ctrl ~index:1 envelope;
    meas.(0) <- obs.Soc.qos_rate;
    meas.(1) <- obs.Soc.chip_power;
    Mimo.step_into ctrl ~measured:meas ~dst:u;
    (* Exynos cluster indices: FS is identified on the reference
       big.LITTLE platform only (Scenario rejects it elsewhere). *)
    ignore (Manager.apply_command soc 0 u ~pos:0 : bool);
    ignore (Manager.apply_command soc 1 u ~pos:2 : bool)
  in
  let persist =
    {
      Manager.snapshot =
        (fun () ->
          {
            Manager.variant = "FS";
            payload = Marshal.to_string (Mimo.snapshot ctrl) [];
          });
      restore =
        (fun c ->
          Manager.require_variant ~expect:"FS" c;
          Mimo.restore ctrl
            (Marshal.from_string c.Manager.payload 0 : Mimo.snapshot));
    }
  in
  { Manager.name = "FS"; step; persist = Some persist }
