type stats = {
  product_states : int;
  removed_uncontrollable : int;
  removed_blocking : int;
  removed_forbidden : int;
  iterations : int;
}

let pp_stats ppf s =
  Format.fprintf ppf
    "product %d states; removed %d forbidden, %d uncontrollable, %d blocking; \
     %d fixpoint iterations"
    s.product_states s.removed_forbidden s.removed_uncontrollable
    s.removed_blocking s.iterations

type error = Empty_supervisor

(* Counting-sort (key, value) pairs into CSR form over [n] buckets. *)
let csr_of_pairs n keys values =
  let count = Array.length keys in
  let deg = Array.make n 0 in
  Array.iter (fun k -> deg.(k) <- deg.(k) + 1) keys;
  let row = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    row.(i + 1) <- row.(i) + deg.(i)
  done;
  let out = Array.make count 0 in
  let cursor = Array.copy row in
  for k = 0 to count - 1 do
    let key = keys.(k) in
    out.(cursor.(key)) <- values.(k);
    cursor.(key) <- cursor.(key) + 1
  done;
  (row, out)

(* ===================================================================== *)
(* The synthesis engine.                                                 *)
(*                                                                       *)
(* One engine behind every entry point: [supcon] is [supcon_par] at      *)
(* jobs=1, and [supcon_modular] hands it the plant components unfused.   *)
(* The product is taken over an array of components (the plant or k      *)
(* plant components, then the spec), composed on the fly so a 3^k        *)
(* unconstrained plant is never materialized when the spec admits only   *)
(* a sliver of it; both the product construction and the fixpoint run   *)
(* on [jobs] SPMD workers (at jobs=1, inline on the calling domain).     *)
(*                                                                       *)
(* Determinism is the load-bearing design decision.  The canonical       *)
(* numbering of product states is BFS discovery order from the initial   *)
(* state, with per-state emissions in a fixed intrinsic order (each      *)
(* component's CSR row walked in event-id order, an event handled by     *)
(* its lowest-indexed owner).  The parallel exploration is               *)
(* level-synchronous and shards states by a hash of their joint key, so  *)
(* its interim numbering is jobs-dependent — but each worker buffers its *)
(* emissions in exactly the intrinsic per-state order, which means a     *)
(* cheap sequential BFS renumbering over the assembled transition        *)
(* structure yields the canonical numbering *exactly*, for any [jobs].   *)
(* Everything after that point (CSR sort in [of_indexed_arrays],         *)
(* digests, names) is a pure function of that numbering.  The fixpoint   *)
(* passes each compute a complete, unique fixpoint of a monotone         *)
(* operator, so their per-pass removal counts and the iteration count    *)
(* are traversal-order-free.                                             *)
(*                                                                       *)
(* Memory-ordering note: inside a pass, workers may read [good]/[coacc]  *)
(* cells owned by other workers without synchronization.  Both arrays    *)
(* are monotone (false→true for coacc, true→false for good) and every    *)
(* cross-shard decision taken on a stale read is conservative: a stale   *)
(* read can only cause a spurious spill (re-checked by the owner) or a   *)
(* missed local kill that the owner's own propagation re-delivers via    *)
(* the spill queues.  Bool arrays are word-per-element in OCaml, so      *)
(* distinct cells never tear.                                            *)
(* ===================================================================== *)

(* Flattened CSR copy of one component: closure-free row walks and       *)
(* binary searches in the per-transition hot loop. *)
type comp = {
  cn : int;
  crow : int array;
  cev : int array;
  cdst : int array;
  cinit : int;
  cmarked : bool array;
  cforbidden : bool array;
}

let comp_of_automaton a =
  let cn = Automaton.num_states a in
  let crow = Array.make (cn + 1) 0 in
  for i = 0 to cn - 1 do
    crow.(i + 1) <- crow.(i) + Automaton.out_degree a i
  done;
  let total = crow.(cn) in
  let cev = Array.make (max total 1) 0 in
  let cdst = Array.make (max total 1) 0 in
  let k = ref 0 in
  for i = 0 to cn - 1 do
    Automaton.iter_row a i (fun eid d ->
        cev.(!k) <- eid;
        cdst.(!k) <- d;
        incr k)
  done;
  {
    cn;
    crow;
    cev;
    cdst;
    cinit = Automaton.initial_index a;
    cmarked = Array.init cn (Automaton.is_marked_index a);
    cforbidden = Array.init cn (Automaton.is_forbidden_index a);
  }

let cstep cc i eid =
  let lo = ref cc.crow.(i) and hi = ref cc.crow.(i + 1) in
  let res = ref (-1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let e = cc.cev.(mid) in
    if e = eid then begin
      res := cc.cdst.(mid);
      lo := !hi
    end
    else if e < eid then lo := mid + 1
    else hi := mid
  done;
  !res

(* [comps] is the plant components then the spec; [entry] names the
   public function in error contexts. *)
let supcon_sharded ~entry ~jobs comps =
  let jobs = max 1 jobs in
  let nc = Array.length comps in
  let spec_c = nc - 1 in
  let plant_name =
    String.concat "||" (List.init spec_c (fun c -> Automaton.name comps.(c)))
  in
  let spec_name = Automaton.name comps.(spec_c) in
  let context =
    Printf.sprintf "Synthesis.%s(%s,%s)" entry plant_name spec_name
  in
  let alphabet =
    let acc = ref (Automaton.alphabet comps.(0)) in
    for c = 1 to nc - 1 do
      acc := Event.merge_alphabets ~context !acc (Automaton.alphabet comps.(c))
    done;
    !acc
  in
  let max_id = Event.Set.fold (fun e m -> max m (Event.id e)) alphabet (-1) in
  let ctrl = Array.make (max_id + 1) true in
  Event.Set.iter
    (fun e -> ctrl.(Event.id e) <- Event.is_controllable e)
    alphabet;
  (* Event ownership: an event is handled by its lowest-indexed owner's
     row walk; [others] lists the remaining owners ascending, so plant
     owners are always consulted before the spec (index nc-1) — escapes
     are only recorded once the whole plant side has enabled the event. *)
  let first_owner = Array.make (max_id + 1) (-1) in
  let owner_count = Array.make (max_id + 1) 0 in
  for c = 0 to nc - 1 do
    Event.Set.iter
      (fun e ->
        let eid = Event.id e in
        if first_owner.(eid) < 0 then first_owner.(eid) <- c;
        owner_count.(eid) <- owner_count.(eid) + 1)
      (Automaton.alphabet comps.(c))
  done;
  let others = Array.make (max_id + 1) [||] in
  for eid = 0 to max_id do
    if owner_count.(eid) > 1 then
      others.(eid) <- Array.make (owner_count.(eid) - 1) 0
  done;
  let fill = Array.make (max_id + 1) 0 in
  for c = 1 to nc - 1 do
    Event.Set.iter
      (fun e ->
        let eid = Event.id e in
        if c <> first_owner.(eid) then begin
          others.(eid).(fill.(eid)) <- c;
          fill.(eid) <- fill.(eid) + 1
        end)
      (Automaton.alphabet comps.(c))
  done;
  let plant_owned =
    Array.init (max_id + 1) (fun eid ->
        first_owner.(eid) >= 0 && first_owner.(eid) < spec_c)
  in
  let cs = Array.map comp_of_automaton comps in
  (* Mixed-radix key encoding of joint states; must fit an OCaml int. *)
  let weights = Array.make nc 1 in
  let () =
    let w = ref 1 in
    for c = nc - 1 downto 0 do
      weights.(c) <- !w;
      let n_c = cs.(c).cn in
      if !w > max_int / n_c then
        invalid_arg (context ^ ": joint state space exceeds the int key range");
      w := !w * n_c
    done
  in
  let key0 =
    let k = ref 0 in
    for c = 0 to nc - 1 do
      k := !k + (cs.(c).cinit * weights.(c))
    done;
    !k
  in
  let shard_of key = if jobs = 1 then 0 else Inttbl.hash key mod jobs in
  (* --- per-shard / per-worker state ---------------------------------- *)
  let tables = Array.init jobs (fun _ -> Inttbl.create ()) in
  let skeys = Array.init jobs (fun _ -> Intvec.create ()) in
  let flo = Array.make jobs 0 and fhi = Array.make jobs 0 in
  let outk =
    Array.init jobs (fun _ -> Array.init jobs (fun _ -> Intvec.create ()))
  in
  let btsrc = Array.init jobs (fun _ -> Intvec.create ()) in
  let btev = Array.init jobs (fun _ -> Intvec.create ()) in
  let btdst = Array.init jobs (fun _ -> Intvec.create ()) in
  let besc = Array.init jobs (fun _ -> Intvec.create ()) in
  let tbase = Array.make jobs 0 in
  let idxs = Array.init jobs (fun _ -> Array.make nc 0) in
  let stacks = Array.init jobs (fun _ -> Intvec.create ()) in
  let spill =
    Array.init jobs (fun _ ->
        Array.init jobs (fun _ -> [| Intvec.create (); Intvec.create () |]))
  in
  (* Shared slots, published worker-0 -> everyone through barrier waits. *)
  let shard_off = Array.make (jobs + 1) 0 in
  let n_total = ref 0 in
  let keyof = ref [||] in
  let deg = ref [||] in
  let trow = ref [||] and ttev = ref [||] and ttdst = ref [||] in
  let perm = ref [||] and ord = ref [||] in
  let frow = ref [||] and fev = ref [||] and fdst = ref [||] in
  let pmarked = ref [||] and pforbid = ref [||] and pesc = ref [||] in
  let prow = ref [||] and pred = ref [||] in
  let usrow = ref [||] and usucc = ref [||] in
  let uprow = ref [||] and upred = ref [||] in
  let good = ref [||] and coacc = ref [||] in
  let wcnt = Array.make jobs 0 in
  let wspill = Array.make jobs 0 in
  let removed_forb = ref 0 in
  let removed_unc = ref 0 and removed_blk = ref 0 in
  let iterations = ref 0 in
  let pass_total = ref 0 in
  let go_on = ref true in
  let empty = ref false in
  let sup_of = ref [||] and old_of_sup = ref [||] in
  let msup = ref 0 in
  let woff = Array.make (jobs + 1) 0 in
  let ksrc = ref [||] and kev = ref [||] and kdst = ref [||] in
  (* Seed the initial state into its shard before workers start. *)
  let s0 = shard_of key0 in
  ignore (Inttbl.put tables.(s0) key0 0);
  Intvec.push skeys.(s0) key0;
  fhi.(s0) <- 1;
  let worker w b =
    (* ---------- phase 1: level-synchronous sharded product BFS ------- *)
    let idx = idxs.(w) in
    let expand src key =
      for c = 0 to nc - 1 do
        idx.(c) <- key / weights.(c) mod cs.(c).cn
      done;
      for c = 0 to nc - 1 do
        let cc = cs.(c) in
        let i_c = idx.(c) in
        for t = cc.crow.(i_c) to cc.crow.(i_c + 1) - 1 do
          let eid = cc.cev.(t) in
          if first_owner.(eid) = c then begin
            let dkey = ref (key + ((cc.cdst.(t) - i_c) * weights.(c))) in
            let oth = others.(eid) in
            let no = Array.length oth in
            let ok = ref true in
            let oi = ref 0 in
            while !ok && !oi < no do
              let o = oth.(!oi) in
              let d = cstep cs.(o) idx.(o) eid in
              if d < 0 then begin
                ok := false;
                (* Every owner below [o] stepped.  [o] can only be the
                   spec when the whole plant side enabled the event: an
                   uncontrollable escape. *)
                if o = spec_c && not ctrl.(eid) then Intvec.push besc.(w) src
              end
              else begin
                dkey := !dkey + ((d - idx.(o)) * weights.(o));
                incr oi
              end
            done;
            if !ok then begin
              Intvec.push btsrc.(w) src;
              Intvec.push btev.(w) eid;
              Intvec.push btdst.(w) !dkey;
              Intvec.push outk.(w).(shard_of !dkey) !dkey
            end
          end
        done
      done
    in
    let levels = ref true in
    while !levels do
      (* E: expand this shard's frontier; emissions buffered in intrinsic
         order, destination *keys* pushed to the owning shard's inbox. *)
      for l = flo.(w) to fhi.(w) - 1 do
        expand ((l * jobs) + w) (Intvec.get skeys.(w) l)
      done;
      Spmd.wait b;
      (* A: drain inboxes (any order — numbering is canonicalized later),
         inserting fresh keys; they form the next frontier. *)
      flo.(w) <- Intvec.length skeys.(w);
      for v = 0 to jobs - 1 do
        let q = outk.(v).(w) in
        for x = 0 to Intvec.length q - 1 do
          let key = Intvec.get q x in
          if Inttbl.put tables.(w) key (Intvec.length skeys.(w)) = -1 then
            Intvec.push skeys.(w) key
        done;
        Intvec.clear q
      done;
      fhi.(w) <- Intvec.length skeys.(w);
      Spmd.wait b;
      (* L: resolve this level's buffered destination keys against the
         now-quiescent shard tables. *)
      let m = Intvec.length btdst.(w) in
      for k = tbase.(w) to m - 1 do
        let key = Intvec.get btdst.(w) k in
        let s = shard_of key in
        let l = Inttbl.find tables.(s) key in
        Intvec.set btdst.(w) k ((l * jobs) + s)
      done;
      tbase.(w) <- m;
      Spmd.wait b;
      let any = ref false in
      for s = 0 to jobs - 1 do
        if fhi.(s) > flo.(s) then any := true
      done;
      levels := !any
    done;
    (* From here on each phase drops the buffers no worker reads again, so
       they can be collected mid-synthesis: held to the end, they raised
       the peak heap of repeated monolithic syntheses by about 30 %. *)
    Inttbl.release tables.(w);
    (* ---------- phase 2: assembly into one flat CSR ------------------ *)
    if w = 0 then begin
      let off = ref 0 in
      for s = 0 to jobs - 1 do
        shard_off.(s) <- !off;
        off := !off + Intvec.length skeys.(s)
      done;
      shard_off.(jobs) <- !off;
      n_total := !off;
      deg := Array.make !off 0;
      keyof := Array.make !off 0
    end;
    Spmd.wait b;
    let n = !n_total in
    let flat enc = shard_off.(enc mod jobs) + (enc / jobs) in
    let d = !deg and ko = !keyof in
    for l = 0 to Intvec.length skeys.(w) - 1 do
      ko.(shard_off.(w) + l) <- Intvec.get skeys.(w) l
    done;
    for k = 0 to Intvec.length btsrc.(w) - 1 do
      let f = flat (Intvec.get btsrc.(w) k) in
      d.(f) <- d.(f) + 1
    done;
    Spmd.wait b;
    if w = 0 then begin
      let row = Array.make (n + 1) 0 in
      for i = 0 to n - 1 do
        row.(i + 1) <- row.(i) + d.(i)
      done;
      trow := row;
      ttev := Array.make row.(n) 0;
      ttdst := Array.make row.(n) 0;
      (* Reuse [deg] as the per-state write cursor. *)
      for i = 0 to n - 1 do
        d.(i) <- row.(i)
      done
    end;
    Spmd.wait b;
    let row = !trow and tev_t = !ttev and tdst_t = !ttdst in
    (* Each source state was expanded by exactly one worker and its
       emissions are contiguous in that worker's buffer, so the cursor
       cells below have a single writer and per-row order is exactly the
       intrinsic emission order. *)
    for k = 0 to Intvec.length btsrc.(w) - 1 do
      let f = flat (Intvec.get btsrc.(w) k) in
      let p = d.(f) in
      tev_t.(p) <- Intvec.get btev.(w) k;
      tdst_t.(p) <- flat (Intvec.get btdst.(w) k);
      d.(f) <- p + 1
    done;
    List.iter
      (fun v -> v.(w) <- Intvec.create ~capacity:1 ())
      [ skeys; btsrc; btev; btdst ];
    Spmd.wait b;
    (* ---------- phase 3: canonical BFS renumbering ------------------- *)
    if w = 0 then begin
      let p = Array.make n (-1) in
      let o = Array.make n 0 in
      let f0 = flat s0 in
      p.(f0) <- 0;
      o.(0) <- f0;
      let cnt = ref 1 in
      let head = ref 0 in
      while !head < !cnt do
        let f = o.(!head) in
        incr head;
        for k = row.(f) to row.(f + 1) - 1 do
          let dfl = tdst_t.(k) in
          if p.(dfl) < 0 then begin
            p.(dfl) <- !cnt;
            o.(!cnt) <- dfl;
            incr cnt
          end
        done
      done;
      (* Every inserted key is the destination of some emission (or the
         initial state), so the BFS covers everything. *)
      assert (!cnt = n);
      perm := p;
      ord := o;
      let nrow = Array.make (n + 1) 0 in
      for i = 0 to n - 1 do
        let f = o.(i) in
        nrow.(i + 1) <- nrow.(i) + (row.(f + 1) - row.(f))
      done;
      frow := nrow;
      fev := Array.make nrow.(n) 0;
      fdst := Array.make nrow.(n) 0;
      pmarked := Array.make n false;
      pforbid := Array.make n false;
      pesc := Array.make n false
    end;
    Spmd.wait b;
    let p = !perm and o = !ord in
    let nrow = !frow and fe = !fev and fd = !fdst in
    let pm = !pmarked and pf = !pforbid and pe = !pesc in
    let chunk = (n + jobs - 1) / jobs in
    let lo_r = min n (w * chunk) in
    let hi_r = min n ((w + 1) * chunk) in
    let owner i = i / chunk in
    for i = lo_r to hi_r - 1 do
      let f = o.(i) in
      let q = ref nrow.(i) in
      for k = row.(f) to row.(f + 1) - 1 do
        fe.(!q) <- tev_t.(k);
        fd.(!q) <- p.(tdst_t.(k));
        incr q
      done;
      let key = ko.(f) in
      let mk = ref true and fb = ref false in
      for c = 0 to nc - 1 do
        let i_c = key / weights.(c) mod cs.(c).cn in
        if not cs.(c).cmarked.(i_c) then mk := false;
        if cs.(c).cforbidden.(i_c) then fb := true
      done;
      pm.(i) <- !mk;
      pf.(i) <- !fb
    done;
    for x = 0 to Intvec.length besc.(w) - 1 do
      pe.(p.(flat (Intvec.get besc.(w) x))) <- true
    done;
    Spmd.wait b;
    (* ---------- phase 4: derived CSRs (pred, uncontrollable) --------- *)
    (* The fixpoint's two questions — does the plant enable an
       uncontrollable event the spec disables (an escape, found during
       expansion), and which states are linked by uncontrollable events —
       do not depend on the good-set, so that sub-graph is indexed once.
       Only plant-owned events feed it: a spec-private uncontrollable
       event cannot be generated by the plant, so disabling it is free. *)
    besc.(w) <- Intvec.create ~capacity:1 ();
    if w = 0 then begin
      List.iter (fun r -> r := [||]) [ deg; trow; ttev; ttdst; perm ];
      let m_t = nrow.(n) in
      let ts = Array.make m_t 0 in
      for i = 0 to n - 1 do
        for k = nrow.(i) to nrow.(i + 1) - 1 do
          ts.(k) <- i
        done
      done;
      let pr, pd = csr_of_pairs n fd ts in
      prow := pr;
      pred := pd;
      let us = Intvec.create () and ud = Intvec.create () in
      for k = 0 to m_t - 1 do
        let eid = fe.(k) in
        if (not ctrl.(eid)) && plant_owned.(eid) then begin
          Intvec.push us ts.(k);
          Intvec.push ud fd.(k)
        end
      done;
      let usa = Intvec.to_array us and uda = Intvec.to_array ud in
      let r1, o1 = csr_of_pairs n usa uda in
      usrow := r1;
      usucc := o1;
      let r2, o2 = csr_of_pairs n uda usa in
      uprow := r2;
      upred := o2;
      good := Array.make n true;
      coacc := Array.make n false
    end;
    Spmd.wait b;
    let g = !good and ca = !coacc in
    let pr = !prow and pd = !pred in
    let usr = !usrow and usx = !usucc in
    let upr = !uprow and upx = !upred in
    (* ---------- phase 5: parallel fixpoint --------------------------- *)
    let cnt_removed = ref 0 in
    let stack = stacks.(w) in
    let bank = ref 0 in
    (* Spill-queue propagation shared by both passes: [process i] applies
       the pass's local rule to an owned state; [drain] propagates from
       the local worklist, spilling foreign states to their owners. *)
    let propagate ~drain ~process =
      drain ();
      let produced () =
        let s = ref 0 in
        for v = 0 to jobs - 1 do
          s := !s + Intvec.length spill.(w).(v).(!bank)
        done;
        !s
      in
      wspill.(w) <- produced ();
      Spmd.wait b;
      let rounds = ref true in
      while !rounds do
        let total = ref 0 in
        for v = 0 to jobs - 1 do
          total := !total + wspill.(v)
        done;
        if !total = 0 then rounds := false
        else begin
          (* Everyone must read this round's [wspill] decision before any
             worker overwrites its slot for the next round. *)
          Spmd.wait b;
          let consume = !bank in
          bank := 1 - !bank;
          for v = 0 to jobs - 1 do
            let q = spill.(v).(w).(consume) in
            for x = 0 to Intvec.length q - 1 do
              process (Intvec.get q x)
            done;
            Intvec.clear q
          done;
          drain ();
          wspill.(w) <- produced ();
          Spmd.wait b
        end
      done
    in
    let fix = ref true in
    while !fix do
      (* Uncontrollable pass: kill good states with an uncontrollable
         escape or a bad uncontrollable successor; propagate backwards
         over the uncontrollable sub-graph. *)
      cnt_removed := 0;
      Intvec.clear stack;
      let kill i =
        g.(i) <- false;
        incr cnt_removed;
        Intvec.push stack i
      in
      let drain_u () =
        while Intvec.length stack > 0 do
          let j = Intvec.pop stack in
          for k = upr.(j) to upr.(j + 1) - 1 do
            let i = upx.(k) in
            if g.(i) then
              if owner i = w then kill i
              else Intvec.push spill.(w).(owner i).(!bank) i
          done
        done
      in
      (* The first iteration also removes the forbidden states, counted
         apart from the passes as [removed_forbidden]. *)
      if !iterations = 0 then begin
        for i = lo_r to hi_r - 1 do
          if pf.(i) then begin
            g.(i) <- false;
            incr cnt_removed
          end
        done;
        wcnt.(w) <- !cnt_removed;
        cnt_removed := 0;
        Spmd.wait b;
        if w = 0 then begin
          let s = ref 0 in
          for v = 0 to jobs - 1 do
            s := !s + wcnt.(v)
          done;
          removed_forb := !s
        end;
        Spmd.wait b
      end;
      for i = lo_r to hi_r - 1 do
        if g.(i) then
          if pe.(i) then kill i
          else begin
            let bad = ref false in
            let k = ref usr.(i) in
            let hi = usr.(i + 1) in
            while (not !bad) && !k < hi do
              if not g.(usx.(!k)) then bad := true;
              incr k
            done;
            if !bad then kill i
          end
      done;
      propagate ~drain:drain_u ~process:(fun i -> if g.(i) then kill i);
      wcnt.(w) <- !cnt_removed;
      Spmd.wait b;
      if w = 0 then begin
        let s = ref 0 in
        for v = 0 to jobs - 1 do
          s := !s + wcnt.(v)
        done;
        pass_total := !s
      end;
      Spmd.wait b;
      let u = !pass_total in
      (* Blocking pass: backward reachability from good marked states
         within the good region; whatever is not co-reached is removed. *)
      for i = lo_r to hi_r - 1 do
        ca.(i) <- false
      done;
      Spmd.wait b;
      cnt_removed := 0;
      Intvec.clear stack;
      let mark i =
        ca.(i) <- true;
        Intvec.push stack i
      in
      let drain_b () =
        while Intvec.length stack > 0 do
          let j = Intvec.pop stack in
          for k = pr.(j) to pr.(j + 1) - 1 do
            let i = pd.(k) in
            if g.(i) && not ca.(i) then
              if owner i = w then mark i
              else Intvec.push spill.(w).(owner i).(!bank) i
          done
        done
      in
      for i = lo_r to hi_r - 1 do
        if g.(i) && pm.(i) then mark i
      done;
      propagate ~drain:drain_b ~process:(fun i ->
          if g.(i) && not ca.(i) then mark i);
      for i = lo_r to hi_r - 1 do
        if g.(i) && not ca.(i) then begin
          g.(i) <- false;
          incr cnt_removed
        end
      done;
      wcnt.(w) <- !cnt_removed;
      Spmd.wait b;
      if w = 0 then begin
        let s = ref 0 in
        for v = 0 to jobs - 1 do
          s := !s + wcnt.(v)
        done;
        let bl = !s in
        incr iterations;
        removed_unc := !removed_unc + u;
        removed_blk := !removed_blk + bl;
        go_on := u > 0 || bl > 0
      end;
      Spmd.wait b;
      fix := !go_on
    done;
    (* ---------- phase 6: supervisor extraction ----------------------- *)
    if w = 0 then begin
      List.iter (fun r -> r := [||]) [ prow; pred; usrow; usucc; uprow; upred ];
      List.iter (fun r -> r := [||]) [ pforbid; pesc; coacc ];
      if not g.(0) then empty := true
      else begin
        let so = Array.make n (-1) in
        let cnt = ref 0 in
        for i = 0 to n - 1 do
          if g.(i) then begin
            so.(i) <- !cnt;
            incr cnt
          end
        done;
        msup := !cnt;
        let os = Array.make !cnt 0 in
        for i = 0 to n - 1 do
          if g.(i) then os.(so.(i)) <- i
        done;
        sup_of := so;
        old_of_sup := os
      end
    end;
    Spmd.wait b;
    if not !empty then begin
      let so = !sup_of in
      let cnt = ref 0 in
      for i = lo_r to hi_r - 1 do
        if g.(i) then
          for k = nrow.(i) to nrow.(i + 1) - 1 do
            if g.(fd.(k)) then incr cnt
          done
      done;
      wcnt.(w) <- !cnt;
      Spmd.wait b;
      if w = 0 then begin
        let off = ref 0 in
        for v = 0 to jobs - 1 do
          woff.(v) <- !off;
          off := !off + wcnt.(v)
        done;
        woff.(jobs) <- !off;
        ksrc := Array.make !off 0;
        kev := Array.make !off 0;
        kdst := Array.make !off 0
      end;
      Spmd.wait b;
      let ks = !ksrc and ke = !kev and kd = !kdst in
      let q = ref woff.(w) in
      for i = lo_r to hi_r - 1 do
        if g.(i) then
          for k = nrow.(i) to nrow.(i + 1) - 1 do
            if g.(fd.(k)) then begin
              ks.(!q) <- so.(i);
              ke.(!q) <- fe.(k);
              kd.(!q) <- so.(fd.(k));
              incr q
            end
          done
      done;
      Spmd.wait b
    end
  in
  Spmd.run ~jobs worker;
  let stats =
    {
      product_states = !n_total;
      removed_uncontrollable = !removed_unc;
      removed_blocking = !removed_blk;
      removed_forbidden = !removed_forb;
      iterations = !iterations;
    }
  in
  if !empty then Error Empty_supervisor
  else begin
    let m = !msup in
    let os = !old_of_sup and o = !ord and ko = !keyof in
    let pm = !pmarked in
    let names () =
      Array.init m (fun i ->
          let key = ko.(o.(os.(i))) in
          Automaton.product_state_name_n
            (List.init nc (fun c ->
                 Automaton.state_of_index comps.(c)
                   (key / weights.(c) mod cs.(c).cn))))
    in
    let sup =
      Automaton.of_indexed_arrays
        ~name:("sup(" ^ plant_name ^ "," ^ spec_name ^ ")")
        ~names ~alphabet ~initial:0
        ~marked:(Array.init m (fun i -> pm.(os.(i))))
        ~forbidden:(Array.make m false) ~src:!ksrc ~event:!kev ~target:!kdst
    in
    Ok (Reach.accessible sup, stats)
  end

let supcon_par ?(jobs = 1) ~plant ~spec () =
  supcon_sharded ~entry:"supcon" ~jobs [| plant; spec |]

let supcon ~plant ~spec = supcon_par ~jobs:1 ~plant ~spec ()

let supcon_exn ~plant ~spec =
  match supcon ~plant ~spec with
  | Ok (sup, _) -> sup
  | Error Empty_supervisor -> failwith "Synthesis.supcon: empty supervisor"

let supcon_modular ?(jobs = 1) ~plants ~spec () =
  if plants = [] then invalid_arg "Synthesis.supcon_modular: no plant components";
  supcon_sharded ~entry:"supcon_modular" ~jobs
    (Array.of_list (plants @ [ spec ]))
