//! X1 acceptance: knock `trace::Event` codec arms out of the live
//! surfaces (harness and rule table shared with X1–X3).

#[path = "x_arm_removal/mod.rs"]
mod harness;

#[test]
fn pristine_surfaces_pass_x1() {
    harness::pristine_surfaces_pass("X1");
}

#[test]
fn removing_any_decoder_arm_fails_x1() {
    harness::removing_any_arm_fails("X1", 9);
}
