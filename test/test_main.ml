let () =
  Alcotest.run "disclosure-control"
    [
      ("relational", Test_relational.suite);
      ("cq", Test_cq.suite);
      ("semantics", Test_semantics.suite);
      ("tagged", Test_tagged.suite);
      ("rewrite", Test_rewrite.suite);
      ("glb", Test_glb.suite);
      ("lattice", Test_lattice.suite);
      ("labeler", Test_labeler.suite);
      ("dissect", Test_dissect.suite);
      ("fold", Test_fold.suite);
      ("pipeline", Test_pipeline.suite);
      ("policy", Test_policy.suite);
      ("audit", Test_audit.suite);
      ("facebook", Test_fb.suite);
      ("workload", Test_workload.suite);
      ("multiatom", Test_multiatom.suite);
      ("fql", Test_fql.suite);
      ("service", Test_service.suite);
      ("guard", Test_guard.suite);
      ("roundtrip", Test_roundtrip.suite);
      ("answer", Test_answer.suite);
      ("policyfile", Test_policyfile.suite);
      ("ucq", Test_ucq.suite);
      ("chase", Test_chase.suite);
      ("edge", Test_edge.suite);
      ("exhaustive", Test_exhaustive.suite);
      ("properties", Test_props.suite);
      ("canon", Test_canon.suite);
    ]
