// Package lamport implements distributed mutual exclusion after Lamport
// [11] in the two variants the paper analyses (Section 3.1.1):
//
//   - L1 runs the classical algorithm directly on the N mobile hosts. Every
//     protocol message is MH-to-MH (2·Cwireless + Csearch), every MH keeps
//     a request queue, and FIFO channels between every MH pair are required.
//   - L2 runs it among the M support stations only: the MH's side — init()
//     to its local MSS, the grant by search, the release relayed through
//     its current MSS — is mutex.Round, ticketed by the request timestamp.
//
// Both variants share one participant state machine (logical.MutexEngine):
// a Lamport clock, a timestamp-ordered request queue, and the last
// timestamp seen from every peer. A participant may enter for the request
// at the head of its queue once it has received a message timestamped
// later than that request from every other participant. The critical
// section itself is mutex.Hold.
package lamport
