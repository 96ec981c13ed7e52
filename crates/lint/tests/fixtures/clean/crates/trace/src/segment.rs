//! Fixture: segment codec handling every variant on both sides.

use crate::event::Event;

pub struct Segment;

impl Segment {
    pub fn push(ev: &Event) {
        match ev {
            Event::Ping => {}
            Event::Pong { .. } => {}
        }
    }

    pub fn decode_into(kind: u8) -> Event {
        match kind {
            0 => Event::Ping,
            _ => Event::Pong { addr: 0 },
        }
    }
}
