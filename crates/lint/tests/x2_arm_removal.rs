//! X2 acceptance: knock `CcBackend` dispatch arms out of the live
//! surfaces (harness and rule table shared with X1–X3).

#[path = "x_arm_removal/mod.rs"]
mod harness;

#[test]
fn pristine_surfaces_pass_x2() {
    harness::pristine_surfaces_pass("X2");
}

#[test]
fn removing_any_dispatch_arm_fails_x2() {
    harness::removing_any_arm_fails("X2", 3);
}
