(** Structured decision provenance — the evidence trail behind one
    reference-monitor decision.

    The paper's premise is that the platform can say {e precisely} what an
    app learns; an [Explain.t] says precisely {e why} one query was answered
    or refused: the security views that witnessed each atom's label (its
    [ℓ⁺] set), which policy partitions covered the label and which died,
    the cumulative-disclosure mask before and after the commit, the budget
    the query burned, the deciding tier of the compiled labeler, the cache
    level that served the label, and — for refusals — a typed cause chain
    naming the stage that failed and every step of the taxonomy variant.

    Explanations are carried strictly out of band: they never enter journal
    bytes, snapshots, or the monitor state, so a service with capture
    enabled is bit-identical on disk to one without (the differential suite
    in [test_explain] enforces this). Capture is off by default and the
    disabled path costs one field load per stage. *)

type cause = {
  stage : string;  (** ["admit"], ["label"], ["decide"], ["journal"], ["overload"]. *)
  reason : string;  (** Human-readable step of the refusal cause chain. *)
}

type t = {
  principal : string;
  decision : string;  (** ["answered"], ["refused:<tag>"] — the journal's decision word. *)
  label : string;  (** {!Label.encode}'s hex form; ["-"] when refused pre-label. *)
  label_width : int;  (** Atom count of the label; [-1] when none was computed. *)
  atoms : (int * string list) list;
      (** Per label atom: the base relation id and the names of the security
          views in its [ℓ⁺] set — the witnesses that the atom is answerable
          from each listed view. Empty view list = a ⊤ atom. *)
  mask_before : int;  (** Alive-partition mask when the query arrived. *)
  mask_after : int;  (** Alive mask after the commit (same as before on refusal). *)
  partitions : (string * bool * bool) list;
      (** Per policy partition: name, alive on arrival, covers the label.
          Empty when the refusal never reached the monitor. *)
  fuel_spent : int option;  (** Labeling fuel consumed, when fuel is limited. *)
  elapsed_ns : int;  (** Wall time from submission to decision. *)
  tier : string;
      (** Which labeler tier decided: ["memo"], ["atom-memo"], ["diagram"],
          ["matcher"], ["fallback"], ["interpreter"], or ["none"] when the
          decision needed no label (cache hit: see [cache_level]). *)
  cache_level : string;
      (** How the label cache handled it: ["exact"] on a hit, ["miss"] when
          the cache was consulted and the query labeled afresh, ["off"] when
          the shard runs without a cache, or ["none"] outside the serving
          layer and for queries refused before the cache was consulted. *)
  cause : cause list;  (** Refusal cause chain, outermost stage first; empty on answers. *)
}

val mask_delta : t -> int
(** The partitions killed by this decision: [mask_before land lnot mask_after]. *)

val witnesses : Registry.t -> Label.t -> (int * string list) list
(** Decode each atom's [ℓ⁺] set into view names — the [atoms] field. *)

val partition_report : Policy.t -> mask_before:int -> Label.t -> (string * bool * bool) list
(** Per-partition (name, alive, covers) rows for the [partitions] field;
    bit [i] of [mask_before] corresponds to partition [i]. *)

val cause_of_refusal : stage:string -> Guard.refusal_reason -> cause list
(** The typed cause chain for one refusal: the failing stage first, then one
    step per level of the taxonomy variant (e.g. [Resource (Label_too_wide _)]
    yields the resource class and the width-versus-cap step). Total over the
    taxonomy — every variant produces a non-empty chain. *)

val refused :
  principal:string ->
  stage:string ->
  ?label:Label.t ->
  ?mask_before:int ->
  ?fuel_spent:int ->
  ?elapsed_ns:int ->
  Guard.refusal_reason ->
  t
(** An explanation for a refusal at [stage], with whatever context existed
    when it fired ([label] and [mask_before] are absent for pre-label and
    pre-monitor refusals respectively). [tier]/[cache_level] default to
    ["none"]; the serving layer overrides them. *)

val pp : Format.formatter -> t -> unit
(** Multi-line human-readable rendering, the output of
    [disclosurectl explain]. *)
