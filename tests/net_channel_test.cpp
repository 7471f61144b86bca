#include <gtest/gtest.h>

#include "net/channel.hpp"

namespace vdep::net {
namespace {

struct ChannelFixture : ::testing::Test {
  ChannelFixture() : kernel(1), network(kernel), channels(network) {
    a = network.add_host("a");
    b = network.add_host("b");
  }

  sim::Kernel kernel;
  Network network;
  ChannelManager channels;
  NodeId a, b;
};

TEST_F(ChannelFixture, ConnectAcceptAndExchange) {
  std::vector<Payload> at_server;
  std::vector<Payload> at_client;
  ChannelPtr server_side;

  channels.listen(b, 7000, [&](ChannelPtr ch) {
    server_side = ch;
    // Capture a raw pointer: the handler lives on the channel itself, so a
    // ChannelPtr capture would form a reference cycle. `server_side` owns it.
    ch->set_receive_handler([&, raw = ch.get()](Payload&& msg) {
      at_server.push_back(msg);
      raw->send(Bytes{9, 9});
    });
  });

  auto client = channels.connect(a, b, 7000);
  client->set_receive_handler([&](Payload&& msg) { at_client.push_back(std::move(msg)); });
  client->send(Bytes{1, 2, 3});
  kernel.run();

  ASSERT_EQ(at_server.size(), 1u);
  EXPECT_EQ(at_server[0], (Bytes{1, 2, 3}));
  ASSERT_EQ(at_client.size(), 1u);
  EXPECT_EQ(at_client[0], (Bytes{9, 9}));
}

TEST_F(ChannelFixture, MessageBoundariesPreservedInOrder) {
  std::vector<Payload> received;
  channels.listen(b, 7000, [&](ChannelPtr ch) {
    ch->set_receive_handler([&](Payload&& msg) { received.push_back(std::move(msg)); });
    // Keep the server side alive.
    static ChannelPtr keep;
    keep = ch;
  });
  auto client = channels.connect(a, b, 7000);
  for (std::uint8_t i = 0; i < 50; ++i) client->send(Bytes{i});
  kernel.run();
  ASSERT_EQ(received.size(), 50u);
  for (std::uint8_t i = 0; i < 50; ++i) EXPECT_EQ(received[i], Bytes{i});
}

TEST_F(ChannelFixture, InOrderDespiteLossyLink) {
  // Reliable transport: loss turns into delay, never reordering or loss.
  LinkParams lossy;
  lossy.loss_probability = 0.3;
  network.set_link_params(a, b, lossy);

  std::vector<Payload> received;
  channels.listen(b, 7000, [&](ChannelPtr ch) {
    static ChannelPtr keep;
    keep = ch;
    ch->set_receive_handler([&](Payload&& msg) { received.push_back(std::move(msg)); });
  });
  auto client = channels.connect(a, b, 7000);
  for (std::uint8_t i = 0; i < 30; ++i) client->send(Bytes{i});
  kernel.run();
  ASSERT_EQ(received.size(), 30u);
  for (std::uint8_t i = 0; i < 30; ++i) EXPECT_EQ(received[i], Bytes{i});
}

TEST_F(ChannelFixture, DataSentBeforeAcceptIsBuffered) {
  // The SYN and the first DATA race; receiver parks early data.
  std::vector<Payload> received;
  channels.listen(b, 7000, [&](ChannelPtr ch) {
    static ChannelPtr keep;
    keep = ch;
    ch->set_receive_handler([&](Payload&& msg) { received.push_back(std::move(msg)); });
  });
  auto client = channels.connect(a, b, 7000);
  client->send(Bytes{42});  // sent immediately, likely lands with/after SYN
  kernel.run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], Bytes{42});
}

TEST_F(ChannelFixture, SynToClosedPortIsDropped) {
  auto client = channels.connect(a, b, 7001);  // nobody listening
  bool got = false;
  client->set_receive_handler([&](Payload&&) { got = true; });
  client->send(Bytes{1});
  kernel.run();
  EXPECT_FALSE(got);
}

TEST_F(ChannelFixture, MultipleConcurrentChannels) {
  std::vector<int> received;  // channel tag per message
  channels.listen(b, 7000, [&](ChannelPtr ch) {
    static std::vector<ChannelPtr> keep;
    keep.push_back(ch);
    ch->set_receive_handler(
        [&](Payload&& msg) { received.push_back(static_cast<int>(msg[0])); });
  });
  auto c1 = channels.connect(a, b, 7000);
  auto c2 = channels.connect(a, b, 7000);
  c1->send(Bytes{1});
  c2->send(Bytes{2});
  c1->send(Bytes{1});
  kernel.run();
  EXPECT_EQ(received.size(), 3u);
}

TEST_F(ChannelFixture, LargeMessageAccountsFragmentedWire) {
  channels.listen(b, 7000, [&](ChannelPtr ch) {
    static ChannelPtr keep;
    keep = ch;
  });
  auto client = channels.connect(a, b, 7000);
  kernel.run();
  network.reset_totals();
  client->send(filler_bytes(14000));  // 10 fragments
  kernel.run();
  // Payload plus 10 per-fragment TCP/IP headers (at least).
  EXPECT_GE(network.totals().bytes, 14000u + 10u * calib::kTcpIpHeaderBytes);
}

}  // namespace
}  // namespace vdep::net
