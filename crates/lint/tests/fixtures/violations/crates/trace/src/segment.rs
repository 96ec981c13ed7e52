//! Fixture: segment codec whose decoder forgot the Pong arm (X1).

use crate::event::Event;

pub struct Segment;

impl Segment {
    pub fn push(ev: &Event) {
        match ev {
            Event::Ping => {}
            Event::Pong { .. } => {}
        }
    }

    pub fn decode_into() -> Event {
        // Planted X1 violation: Pong is never reconstructed here.
        Event::Ping
    }
}
