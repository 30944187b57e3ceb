(* Warm manager arena for batched campaigns.

   A chaos campaign (and the batch throughput bench) runs thousands of
   short cells, and naively each cell builds its managers from scratch.
   Gain design is already memoized process-wide
   (Design_flow.design_gains_for), which removes the LQG pipeline from
   the per-cell cost, but construction still allocates the controller
   stack and the supervisor every time.  The arena removes that too:
   one manager per (domain, variant), built on first checkout, with a
   pristine checkpoint taken immediately after construction.  Every
   later checkout restores the pristine checkpoint — snapshot/restore
   is complete-state in every layer (Supervisor, Mimo, Pid, Guarded),
   so a reset manager is observationally identical to a fresh one; the
   batch-vs-one-shot digest tests pin exactly that.

   Slots are domain-local (Domain.DLS): managers are mutable and
   single-threaded, so a shared arena value can be passed to a parallel
   sweep (Parmap over Pool domains) and each worker transparently warms
   its own slot set.  The design cache underneath is single-flight, so
   concurrent first checkouts across domains still run each
   identification experiment once. *)

type made =
  Spectr.Manager.t
  * Spectr.Supervisor.t option
  * Spectr.Guarded.t option
  * Spectr.Spectr_manager.Reconfig.handle option

(* A warm slot: the built manager and the reset to its pristine
   checkpoint. *)
type t = {
  slots : (Campaign.variant, made * (unit -> unit)) Hashtbl.t Domain.DLS.key;
  mutable checkouts : int; (* diagnostic; racy under parallel sweeps *)
}

let create () =
  { slots = Domain.DLS.new_key (fun () -> Hashtbl.create 8); checkouts = 0 }

let checkouts t = t.checkouts

let checkout t variant =
  t.checkouts <- t.checkouts + 1;
  let slots = Domain.DLS.get t.slots in
  match Hashtbl.find_opt slots variant with
  | Some (made, reset) ->
      reset ();
      made
  | None ->
      let ((mgr, _, _, _) as made) = Campaign.make_manager variant in
      (match mgr.Spectr.Manager.persist with
      | Some p ->
          let pristine = p.Spectr.Manager.snapshot () in
          Hashtbl.replace slots variant
            (made, fun () -> p.Spectr.Manager.restore pristine)
      | None ->
          (* No persistence hook means no way to reset state between
             cells; such a manager is simply rebuilt every checkout.
             SPECTR+R lands here by design: the supervised description
             itself is runtime state, so a warm slot cannot be reset. *)
          ());
      made
