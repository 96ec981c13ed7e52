//! X3 acceptance: knock `ExchangeStrategy` dispatch arms out of the live
//! surfaces (harness and rule table shared with X1–X3).

#[path = "x_arm_removal/mod.rs"]
mod harness;

#[test]
fn pristine_surfaces_pass_x3() {
    harness::pristine_surfaces_pass("X3");
}

#[test]
fn removing_any_dispatch_arm_fails_x3() {
    harness::removing_any_arm_fails("X3", 3);
}
